import hashlib
import json
import math
import os
import runpy
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import kfr
import kfr.generators
import kfr.io
import kfr.krein
import kfr.linalg
from kfr.cli import main
from kfr.generators import make_instance_payload
from kfr.io import (
    InstanceOptions,
    InstanceParseError,
    InstanceValidationError,
    build_instance_family,
    build_instance_gram,
    dumps_canonical,
    instance_digest,
    parse_instance_text,
)
from kfr.spectral import SpectralReport

from instance_writer import serialize_instance


def minimal_payload():
    return {
        "dimension": 2,
        "gram": [[1.0, 0.0], [0.0, 1.0]],
        "subspaces": [{"basis": [[1.0, 0.0]]}, {"basis": [[0.0, 1.0]]}],
        "weights": [1.0, 1.0],
    }


def write_instance(tmp_path, payload, name="instance.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


#: Tolerance, relative to ``max(1, |x|)``, for report numbers written under
#: different BLAS thread counts. The runs differ only in the order in which
#: LAPACK sums, which moves a result by a few roundings of the values it is
#: computed from: about d * eps = 5.7e-14 at d = 256 (measured at most
#: 6.6e-15 on ``check``). 1e-12 leaves a wide margin above that and stays a
#: thousand times below the 1e-9 tolerance of the report's identity checks.
BLAS_THREADS_RTOL = 1e-12


def assert_equal_but_rounding(a, b, where="report"):
    assert type(a) is type(b), where
    if isinstance(a, dict):
        assert list(a) == list(b), where
        for key in a:
            assert_equal_but_rounding(a[key], b[key], f"{where}.{key}")
    elif isinstance(a, list):
        assert len(a) == len(b), where
        for index, (x, y) in enumerate(zip(a, b)):
            assert_equal_but_rounding(x, y, f"{where}[{index}]")
    elif isinstance(a, float):
        assert abs(a - b) <= BLAS_THREADS_RTOL * max(1.0, abs(a), abs(b)), where
    else:
        assert a == b, where


class TestCanonicalSerialization:
    def test_floats_round_trip_exactly(self):
        values = [1.0 / 3.0, math.pi, 1e-300, -2.5e17, 0.1 + 0.2]
        text = dumps_canonical(values)
        assert json.loads(text) == values

    def test_deterministic_bytes(self):
        payload = minimal_payload()
        assert dumps_canonical(payload) == dumps_canonical(minimal_payload())

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            dumps_canonical({"x": math.inf})

    def test_rejects_unknown_type(self):
        with pytest.raises(ValueError):
            dumps_canonical({"x": object()})


class TestParseInstance:
    def test_minimal_valid(self):
        instance = parse_instance_text(json.dumps(minimal_payload()))
        assert instance.dimension == 2
        assert len(instance.subspace_columns) == 2
        assert instance.warnings == ()

    def test_symmetrization_warning(self):
        payload = minimal_payload()
        payload["gram"][0][1] = 1e-13
        instance = parse_instance_text(json.dumps(payload))
        assert any("symmetrized" in w for w in instance.warnings)
        assert instance.gram[0, 1] == instance.gram[1, 0]

    def test_large_asymmetry_rejected(self):
        payload = minimal_payload()
        payload["gram"][0][1] = 1e-3
        with pytest.raises(InstanceValidationError, match="asymmetric"):
            parse_instance_text(json.dumps(payload))

    def test_zero_weight_rejected(self):
        payload = minimal_payload()
        payload["weights"] = [1.0, 0.0]
        with pytest.raises(InstanceValidationError, match="weights must be positive"):
            parse_instance_text(json.dumps(payload))

    def test_malformed_json(self):
        with pytest.raises(InstanceParseError, match="line"):
            parse_instance_text("{not json")

    def test_missing_field(self):
        payload = minimal_payload()
        del payload["weights"]
        with pytest.raises(InstanceParseError, match="weights"):
            parse_instance_text(json.dumps(payload))

    def test_wrong_row_length(self):
        payload = minimal_payload()
        payload["gram"][0] = [1.0]
        with pytest.raises(InstanceParseError, match="gram row 0"):
            parse_instance_text(json.dumps(payload))

    def test_weight_count_mismatch(self):
        payload = minimal_payload()
        payload["weights"] = [1.0]
        with pytest.raises(InstanceValidationError, match="weights"):
            parse_instance_text(json.dumps(payload))

    def test_options_parsed(self):
        payload = minimal_payload()
        payload["options"] = {
            "epsilonThreshold": 1e-5,
            "clusterTol": 1e-7,
            "frameTol": 1e-9,
            "sweepEpsilons": [1e-1, 1e-2, 1e-3, 1e-4],
        }
        instance = parse_instance_text(json.dumps(payload))
        assert instance.options.epsilon_threshold == 1e-5
        assert instance.options.sweep_epsilons == (1e-1, 1e-2, 1e-3, 1e-4)

    def test_builders(self):
        instance = parse_instance_text(json.dumps(minimal_payload()))
        gram = build_instance_gram(instance)
        family = build_instance_family(instance)
        assert gram.dim == 2
        assert len(family) == 2

    def test_round_trip_is_stable(self):
        instance = parse_instance_text(json.dumps(make_instance_payload(5, 4, 2)))
        text = serialize_instance(instance)
        again = parse_instance_text(text)
        assert serialize_instance(again) == text
        assert instance_digest(again) == instance_digest(instance)


class TestGeneratedInstances:
    def test_payload_is_canonical_and_parseable(self):
        payload = make_instance_payload(42, 6, 3)
        instance = parse_instance_text(dumps_canonical(payload))
        assert instance.dimension == 6
        gram = build_instance_gram(instance)
        assert gram.classification == "regular"

    def test_seed_determinism(self):
        a = dumps_canonical(make_instance_payload(42, 6, 3))
        b = dumps_canonical(make_instance_payload(42, 6, 3))
        assert a == b

    def test_different_seeds_differ(self):
        a = dumps_canonical(make_instance_payload(1, 6, 3))
        b = dumps_canonical(make_instance_payload(2, 6, 3))
        assert a != b


class TestCli:
    def run(self, *argv, capsys=None):
        code = main(list(argv))
        return code

    def test_gen_round_trip_bytes(self, tmp_path):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        assert main(["gen", "--seed", "42", "--dim", "6", "--subspaces", "3",
                     "--output", str(first)]) == 0
        assert main(["gen", "--seed", "42", "--dim", "6", "--subspaces", "3",
                     "--output", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_gen_parse_serialize_identity(self, tmp_path):
        path = tmp_path / "instance.json"
        assert main(["gen", "--seed", "7", "--output", str(path)]) == 0
        instance = parse_instance_text(path.read_text(encoding="utf-8"))
        assert serialize_instance(instance) == path.read_text(encoding="utf-8")

    def test_analyze_coordinate_parseval(self, tmp_path, capsys):
        path = write_instance(tmp_path, minimal_payload())
        assert main(["analyze", "--input", path]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["command"] == "analyze"
        bounds = report["sections"]["bounds"]
        assert bounds["lower"] == pytest.approx(1.0, abs=1e-10)
        assert bounds["upper"] == pytest.approx(1.0, abs=1e-10)
        assert bounds["isParseval"] is True

    def test_analyze_krein_metric(self, tmp_path, capsys):
        payload = minimal_payload()
        payload["gram"] = [[2.0, 0.0], [0.0, -3.0]]
        path = write_instance(tmp_path, payload)
        assert main(["analyze", "--input", path, "--metric", "krein"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["sections"]["metric"] == "krein"
        assert report["sections"]["bounds"]["isParseval"] is True

    def test_report_determinism(self, tmp_path, capsys):
        path = write_instance(tmp_path, make_instance_payload(3, 6, 3))
        assert main(["analyze", "--input", path, "--metric", "krein"]) == 0
        first = capsys.readouterr().out
        assert main(["analyze", "--input", path, "--metric", "krein"]) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_equivalence_on_generated_instance(self, tmp_path, capsys):
        path = write_instance(tmp_path, make_instance_payload(11, 6, 3))
        assert main(["equivalence", "--input", path]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["sections"]["boundsAgree"] is True

    def test_transfer_on_generated_instance(self, tmp_path, capsys):
        path = write_instance(tmp_path, make_instance_payload(13, 6, 3))
        assert main(["transfer", "--input", path]) == 0
        report = json.loads(capsys.readouterr().out)
        assert all(report["sections"]["checks"].values())

    def test_sweep_canonical_fixture(self, tmp_path, capsys):
        payload = {
            "dimension": 2,
            "gram": [[1.0, 0.0], [0.0, 1.0]],
            "subspaces": [
                {"basis": [[0.7071067811865476, 0.7071067811865476]]},
                {"basis": [[0.7071067811865476, -0.7071067811865476]]},
            ],
            "weights": [1.0, 1.0],
        }
        path = write_instance(tmp_path, payload)
        assert main(["sweep", "--input", path]) == 0
        report = json.loads(capsys.readouterr().out)
        sections = report["sections"]
        assert sections["envelopeWitnessHolds"] is True
        assert sections["envelopeJNormalizedHolds"] is False
        assert 0.9 <= sections["fittedSlope"] <= 1.1
        for eps, lb in zip(sections["epsilons"], sections["lowerBounds"]):
            assert lb == pytest.approx(2 * eps / (1 + eps), rel=1e-8)

    def test_sweep_custom_epsilons(self, tmp_path, capsys):
        path = write_instance(tmp_path, minimal_payload())
        assert main(
            ["sweep", "--input", path, "--epsilons", "1e-1,1e-2,1e-3,1e-4"]
        ) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["sections"]["epsilons"] == [1e-1, 1e-2, 1e-3, 1e-4]

    @pytest.mark.parametrize("flag", ["nan,0.1,0.01,0.001", "0.1,0.01,0.001,inf"])
    def test_sweep_rejects_non_finite_epsilons_flag(self, tmp_path, capsys, flag):
        path = write_instance(tmp_path, minimal_payload())
        assert main(["sweep", "--input", path, "--epsilons", flag]) == 1
        assert "--epsilons must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, position",
        [
            (",1e-1,1e-2,1e-3,1e-4", 0),
            ("1e-1,,1e-2,1e-3,1e-4", 1),
            ("1e-1,1e-2,1e-3,1e-4,", 4),
            ("", 0),
        ],
    )
    def test_sweep_rejects_empty_epsilons_item(self, tmp_path, capsys, flag, position):
        path = write_instance(tmp_path, minimal_payload())
        assert main(["sweep", "--input", path, "--epsilons", flag]) == 1
        assert f"kfr: --epsilons item {position} is empty" in capsys.readouterr().err

    def test_sweep_custom_family_file(self, tmp_path, capsys):
        instance_path = write_instance(tmp_path, minimal_payload())
        members = []
        for eps in (1e-1, 1e-2, 1e-3, 1e-4):
            member = minimal_payload()
            member["gram"] = [[1.0, 0.0], [0.0, eps]]
            members.append(member)
        family_path = tmp_path / "family.json"
        family_path.write_text(json.dumps(members), encoding="utf-8")
        assert main(
            ["sweep", "--input", instance_path, "--family", str(family_path)]
        ) == 0
        report = json.loads(capsys.readouterr().out)
        assert len(report["sections"]["epsilons"]) == 4

    def test_sweep_family_file_rejects_repeated_epsilon(self, tmp_path, capsys):
        instance_path = write_instance(tmp_path, minimal_payload())
        members = []
        for eps in (1e-1, 1e-2, 1e-2, 1e-3, 1e-4):
            member = minimal_payload()
            member["gram"] = [[1.0, 0.0], [0.0, eps]]
            members.append(member)
        family_path = tmp_path / "family.json"
        family_path.write_text(json.dumps(members), encoding="utf-8")
        assert main(
            ["sweep", "--input", instance_path, "--family", str(family_path)]
        ) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "family members 1 and 2" in captured.err

    @pytest.mark.parametrize("malformed", ["no gram", "not an object"])
    def test_sweep_family_file_names_a_malformed_member(
        self, tmp_path, capsys, malformed
    ):
        instance_path = write_instance(tmp_path, minimal_payload())
        member = minimal_payload()
        del member["gram"]
        bad = member if malformed == "no gram" else [member]
        family_path = tmp_path / "family.json"
        family_path.write_text(
            json.dumps([minimal_payload(), bad]), encoding="utf-8"
        )
        assert main(
            ["sweep", "--input", instance_path, "--family", str(family_path)]
        ) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{family_path}[1]" in captured.err

    @pytest.mark.parametrize(
        "field, value, code, message",
        [
            ("gram", [[1.0, 0.0]], 1, "gram must have 2 rows, found 1"),
            ("weights", [1.0, -1.0], 1, "weights must be positive"),
            ("gram", [[1.0, 0.0], [0.0, 0.0]], 2, "nontrivial kernel"),
            ("weights", ["x", 1], 1, "weight 0 must be a number"),
            ("subspaces", [5], 1, "subspace 0 must be an object"),
            ("options", 3, 1, "options must be an object"),
            ("gram", [[1, "a"], [0, 1]], 1, "gram row 0 must contain only numbers"),
        ],
    )
    def test_sweep_family_file_names_an_invalid_member(
        self, tmp_path, capsys, field, value, code, message
    ):
        instance_path = write_instance(tmp_path, minimal_payload())
        member = minimal_payload()
        member[field] = value
        family_path = tmp_path / "family.json"
        family_path.write_text(
            json.dumps([minimal_payload(), member]), encoding="utf-8"
        )
        assert main(
            ["sweep", "--input", instance_path, "--family", str(family_path)]
        ) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"kfr: {family_path}[1]: ")
        assert captured.err.count(f"{family_path}[1]") == 1
        assert message in captured.err

    def test_spectral_command(self, tmp_path, capsys):
        payload = {
            "dimension": 3,
            "gram": [[2.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, -1.0]],
            "subspaces": [{"basis": [[1.0, 0.0, 0.0]]}],
            "weights": [1.0],
        }
        path = write_instance(tmp_path, payload)
        assert main(["spectral", "--input", path]) == 0
        report = json.loads(capsys.readouterr().out)
        sections = report["sections"]
        assert sections["clusters"] == [
            {"value": -1.0, "multiplicity": 1},
            {"value": 2.0, "multiplicity": 2},
        ]
        assert sections["maxMultiplicity"] == 2
        assert all(sections["checks"].values())

    def test_check_command(self, tmp_path, capsys):
        path = write_instance(tmp_path, make_instance_payload(17, 6, 3))
        assert main(["check", "--input", path]) == 0
        report = json.loads(capsys.readouterr().out)
        assert all(report["sections"]["checks"].values())

    def test_check_near_singular_notes_skipped_transfer(self, tmp_path, capsys):
        payload = minimal_payload()
        payload["gram"] = [[1.0, 0.0], [0.0, 1e-8]]
        path = write_instance(tmp_path, payload)
        assert main(["check", "--input", path]) == 0
        report = json.loads(capsys.readouterr().out)
        sections = report["sections"]
        assert sections["classification"] == "near-singular"
        assert any("transfer" in note for note in sections["notes"])
        assert "regularTransferSandwich" not in sections["checks"]

    def test_check_bytes_fixed_by_blas_thread_count(self, tmp_path):
        # At d = 256 LAPACK splits work by thread count, so only a rerun
        # under the same count promises identical bytes.
        instance = tmp_path / "instance.json"
        gen_args = ["--seed", "3", "--dim", "256", "--subspaces", "4"]
        assert main(["gen", *gen_args, "--output", str(instance)]) == 0
        source = os.path.dirname(os.path.dirname(kfr.__file__))
        path = os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")]))

        def run(threads, name, *command):
            report = tmp_path / name
            done = subprocess.run(
                [sys.executable, "-m", "kfr.cli", *command, "--output", str(report)],
                env=dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path),
                timeout=300,
            )
            return done.returncode, report.read_bytes()

        def check(threads, name):
            return run(threads, name, "check", "--input", str(instance))

        one = check("1", "one.json")
        two = check("2", "two.json")
        assert check("2", "again.json") == two
        assert one[0] == two[0] == 0
        assert_equal_but_rounding(json.loads(one[1]), json.loads(two[1]))

        # gen fixes the sign of every basis vector, so its numbers too
        # depend on the thread count only at rounding level
        gen_one = run("1", "gen-one.json", "gen", *gen_args)
        gen_two = run("2", "gen-two.json", "gen", *gen_args)
        assert gen_one[0] == gen_two[0] == 0
        assert_equal_but_rounding(json.loads(gen_one[1]), json.loads(gen_two[1]))

    def test_output_file(self, tmp_path):
        path = write_instance(tmp_path, minimal_payload())
        out = tmp_path / "report.json"
        assert main(["analyze", "--input", path, "--output", str(out)]) == 0
        report = json.loads(out.read_text(encoding="utf-8"))
        assert report["command"] == "analyze"

    def test_exit_parse_failure(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken", encoding="utf-8")
        assert main(["analyze", "--input", str(bad)]) == 1

    def test_exit_validation_failure(self, tmp_path):
        payload = minimal_payload()
        payload["weights"] = [1.0, -2.0]
        path = write_instance(tmp_path, payload)
        assert main(["analyze", "--input", str(path)]) == 1

    def test_exit_numerical_failure_degenerate(self, tmp_path):
        payload = {
            "dimension": 2,
            "gram": [[1.0, 0.0], [0.0, -1.0]],
            "subspaces": [{"basis": [[1.0, 1.0]]}],
            "weights": [1.0],
        }
        path = write_instance(tmp_path, payload)
        assert main(["analyze", "--input", path, "--metric", "krein"]) == 2

    def test_exit_numerical_failure_kernel(self, tmp_path):
        payload = minimal_payload()
        payload["gram"] = [[1.0, 0.0], [0.0, 0.0]]
        path = write_instance(tmp_path, payload)
        assert main(["analyze", "--input", path, "--metric", "krein"]) == 2

    def test_exit_numerical_failure_near_singular_transfer(self, tmp_path):
        payload = minimal_payload()
        payload["gram"] = [[1.0, 0.0], [0.0, 1e-8]]
        path = write_instance(tmp_path, payload)
        assert main(["transfer", "--input", path]) == 2

    def test_exit_theorem_failure(self, tmp_path, capsys):
        # non-invariant subspaces of an indefinite gram: the four bound
        # pairs exist but do not coincide
        rng = np.random.default_rng(5)
        basis = rng.standard_normal((2, 4))
        payload = {
            "dimension": 4,
            "gram": [
                [2.0, 0.0, 0.0, 0.5],
                [0.0, -1.5, 0.3, 0.0],
                [0.0, 0.3, 2.5, 0.0],
                [0.5, 0.0, 0.0, -2.0],
            ],
            "subspaces": [
                {"basis": [list(map(float, basis[0]))]},
                {"basis": [list(map(float, basis[1]))]},
                {"basis": [[1.0, 1.0, 0.0, 0.0]]},
                {"basis": [[0.0, 0.0, 1.0, 1.0]]},
            ],
            "weights": [1.0, 1.0, 1.0, 1.0],
        }
        path = write_instance(tmp_path, payload)
        code = main(["equivalence", "--input", path])
        captured = capsys.readouterr()
        if code == 3:
            report = json.loads(captured.out)
            assert report["sections"]["boundsAgree"] is False
        else:
            # a degenerate member would exit 2; this fixture avoids it
            assert code == 2

    def test_gen_requires_output(self):
        assert main(["gen", "--seed", "1"]) == 1

    def test_missing_input(self):
        assert main(["analyze"]) == 1

    def test_tol_reaches_every_frame_verdict(self, tmp_path, capsys):
        # at frameTol 1e3 no family here is a frame (lower bound ~8e-3)
        instance = str(tmp_path / "instance.json")
        assert main(["gen", "--seed", "1", "--dim", "6", "--subspaces", "3",
                     "--output", instance]) == 0

        def verdicts(command, *flags):
            assert main([command, "--input", instance, *flags]) == 0
            sections = json.loads(capsys.readouterr().out)["sections"]
            return [b["isFrame"] for b in sections.values()
                    if isinstance(b, dict) and "isFrame" in b]

        for command in ("equivalence", "transfer"):
            assert verdicts(command) == [True] * 4
            assert verdicts(command, "--tol", "1e3") == [False] * 4
        # the sweep needs a plain-metric frame, which this tolerance denies
        assert main(["sweep", "--input", instance, "--tol", "1e3"]) == 1
        assert "not a frame" in capsys.readouterr().err

    def test_krein_bounds_use_the_gram_factor_below_the_metric_floor(
        self, tmp_path, capsys
    ):
        # |W| = diag(1, 1e-13) is within the Gram operator's kernel tolerance
        # but below the 1e-12 floor of a freshly factored metric; the bounds
        # come from the cached |W|^{-1/2} and match 2 eps / (1 + eps)
        payload = minimal_payload()
        payload["gram"] = [[1.0, 0.0], [0.0, -1e-13]]
        payload["subspaces"] = [{"basis": [[1.0, 1.0]]}, {"basis": [[1.0, -1.0]]}]
        path = write_instance(tmp_path, payload)
        assert main(["analyze", "--metric", "krein", "--input", path]) == 0
        bounds = json.loads(capsys.readouterr().out)["sections"]["bounds"]
        assert bounds["lower"] == pytest.approx(2e-13 / (1.0 + 1e-13), rel=1e-9)
        assert bounds["upper"] == pytest.approx(2.0, rel=1e-9)

    def test_gen_caps_sizes_before_allocating(self, tmp_path, monkeypatch, capsys):
        def unreachable(*args, **kwargs):
            pytest.fail("an oversized gen reached the Gram sampler")

        monkeypatch.setattr(kfr.generators, "random_gram", unreachable)
        cap = kfr.generators.MAX_INSTANCE_SIZE
        output = tmp_path / "never.json"
        for flags in (["--dim", "100000"], ["--subspaces", "100000"],
                      ["--dim", str(cap + 1)], ["--subspaces", str(cap + 1)]):
            assert main(["gen", "--seed", "1", *flags, "--output", str(output)]) == 1
            assert str(cap) in capsys.readouterr().err
            assert not output.exists()

    #: Eigensolves per command that read eigenvalues only: every bound, so
    #: check's six are the four-way, plain and spectral bounds.
    VALUES_ONLY = {
        ("analyze", "--metric", "hilbert"): 1,
        ("analyze", "--metric", "krein"): 1,
        ("equivalence",): 4,
        ("transfer",): 4,
        ("sweep",): 13,
        ("spectral",): 2,
        ("check",): 6,
    }

    #: Dense LAPACK factorizations per command, by kind. ``svd``: one per
    #: parsed member, and transfer's others orthonormalize its three image
    #: families, with no condition-number SVD; the J-images and the
    #: companion blocks keep the bases they have. ``cholesky``: one per
    #: member and projection kind of each companion-metric bound;
    #: plain-metric bounds and the spectral projection sum factor nothing.
    #: ``eigh`` and ``eigvalsh`` are the solves above that reach LAPACK; the
    #: others take ``symmetric_eig``'s already-diagonal path. ``solve``: one
    #: per member and kind of each companion-metric bound (the J-kind's is
    #: the member's kept ``K^{-1} (W B)^T``); check's 19 add two per member,
    #: with r right-hand sides, for the composed J-projection, whose direct
    #: one reads the J-block's solve.
    FACTORIZATIONS = {
        ("analyze", "--metric", "hilbert"):
            {"eigh": 0, "eigvalsh": 1, "svd": 3, "cholesky": 0, "solve": 0},
        ("analyze", "--metric", "krein"):
            {"eigh": 4, "eigvalsh": 1, "svd": 3, "cholesky": 3, "solve": 3},
        ("equivalence",):
            {"eigh": 7, "eigvalsh": 4, "svd": 3, "cholesky": 12, "solve": 12},
        ("transfer",):
            {"eigh": 5, "eigvalsh": 4, "svd": 12, "cholesky": 6, "solve": 6},
        ("sweep",):
            {"eigh": 18, "eigvalsh": 13, "svd": 3, "cholesky": 18, "solve": 18},
        ("spectral",):
            {"eigh": 1, "eigvalsh": 0, "svd": 0, "cholesky": 1, "solve": 1},
        ("check",):
            {"eigh": 7, "eigvalsh": 5, "svd": 3, "cholesky": 13, "solve": 19},
    }

    #: ``EigenDecomposition.assemble`` calls per command: four per dense Gram
    #: operator, one per polar factor. ``analyze --metric hilbert`` builds
    #: none, and the default sweep builds only diagonal ones, which assemble
    #: nothing (it made 24, four for each of its six epsilons).
    ASSEMBLES = {
        ("analyze", "--metric", "hilbert"): 0,
        ("analyze", "--metric", "krein"): 4,
        ("equivalence",): 4,
        ("transfer",): 4,
        ("sweep",): 0,
        ("spectral",): 4,
        ("check",): 4,
    }

    @pytest.mark.parametrize(
        "command, count",
        [
            (("analyze", "--metric", "hilbert"), 1),
            (("analyze", "--metric", "krein"), 5),
            (("equivalence",), 11),
            (("transfer",), 11),
            (("sweep",), 37),
            (("spectral",), 4),
            (("check",), 14),
        ],
    )
    def test_eigensolves_per_command(self, tmp_path, count_eigs, command, count):
        # each subspace and each J-image is factored once per command; check's
        # 14: build_gram 1, completeness 3 + 3, four-way bounds 4, plain
        # bounds 1, spectral block check 1 and its bound 1
        instance = str(tmp_path / "instance.json")
        assert main(["gen", "--seed", "1", "--dim", "48", "--subspaces", "3",
                     "--output", instance]) == 0
        sizes = count_eigs()
        assert main([*command, "--input", instance,
                     "--output", str(tmp_path / "report.json")]) == 0
        assert len(sizes) == count
        assert sizes.values_only == self.VALUES_ONLY[command]
        assert sizes.tally == self.FACTORIZATIONS[command]
        assert sizes.assembles == self.ASSEMBLES[command]

    REPORT_COMMANDS = tuple(ASSEMBLES)

    @staticmethod
    def coordinate_instance(tmp_path):
        """A bench ``coord_large`` instance at d = 12: diagonal indefinite W,
        three overlapping coordinate subspaces."""
        path = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
        payload = runpy.run_path(str(path))["coordinate_payload"](7, 12, 3)
        return write_instance(tmp_path, payload)

    def test_a_diagonal_gram_assembles_nothing(self, tmp_path, monkeypatch):
        def unreachable(self, values):
            raise AssertionError("a diagonal Gram operator assembled a factor")

        path = self.coordinate_instance(tmp_path)
        monkeypatch.setattr(kfr.linalg.EigenDecomposition, "assemble", unreachable)
        output = str(tmp_path / "report.json")
        for command in self.REPORT_COMMANDS:
            assert main([*command, "--input", path, "--output", output]) == 0

    def test_diagonal_products_keep_report_bytes(self, tmp_path, monkeypatch):
        # the dense products and the row and column scalings give the same
        # reports; with the detection off every factor is assembled densely
        path = self.coordinate_instance(tmp_path)
        output = tmp_path / "report.json"

        def reports():
            texts = []
            for command in self.REPORT_COMMANDS:
                assert main([*command, "--input", path,
                             "--output", str(output)]) == 0
                texts.append(output.read_bytes())
            return texts

        scaled = reports()
        monkeypatch.setattr(kfr.krein, "_is_diagonal", lambda matrix: False)
        assert reports() == scaled

    def test_check_reads_only_the_spectral_pieces_it_uses(self, tmp_path, monkeypatch):
        def unread(report):
            raise AssertionError("a spectral piece check does not report was read")

        for name in ("plain_bounds", "multiplication_form_residual"):
            monkeypatch.setattr(SpectralReport, name, property(unread))
        path = write_instance(tmp_path, make_instance_payload(2, 6, 3))
        output = str(tmp_path / "report.json")
        assert main(["check", "--input", path, "--output", output]) == 0
        with pytest.raises(AssertionError):
            main(["spectral", "--input", path, "--output", output])

    def test_degenerate_member_text_is_pinned(self, tmp_path, capsys):
        # the second member spans a neutral line of W; texts from the parent
        # of the one-factorization change
        payload = {
            "dimension": 4,
            "gram": [[2.0, 0.0, 0.0, 0.0], [0.0, -1.0, 0.0, 0.0],
                     [0.0, 0.0, 3.0, 0.0], [0.0, 0.0, 0.0, -0.5]],
            "subspaces": [
                {"basis": [[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]]},
                {"basis": [[1.0, 1.4142135623730951, 0.0, 0.0]]},
                {"basis": [[0.0, 0.0, 1.0, 2.449489742783178]]},
            ],
            "weights": [1.0, 2.0, 0.5],
        }
        path = write_instance(tmp_path, payload)
        span = ("indefinite form degenerates on the subspace: compressed "
                "eigenvalue magnitudes span [2.211e-16, 2.211e-16]")
        assert main(["equivalence", "--input", path]) == 2
        captured = capsys.readouterr()
        assert json.loads(captured.out)["sections"]["degeneracies"] == [
            f"q on subspaces: {span}",
            f"q on mapped subspaces: {span}",
        ]
        assert captured.err == ""
        assert main(["analyze", "--metric", "krein", "--input", path]) == 2
        assert capsys.readouterr().err == f"kfr: {span}\n"
        assert main(["check", "--input", path]) == 2
        assert capsys.readouterr().err == (
            "kfr: subspace 1 is degenerate under the indefinite form\n"
        )

    def test_tol_flag_spectral(self, tmp_path, capsys):
        payload = minimal_payload()
        path = write_instance(tmp_path, payload)
        assert main(["spectral", "--input", path, "--tol", "1e-6"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["sections"]["maxMultiplicity"] == 2

    @pytest.mark.parametrize("value", ["nan", "inf", "1e400"])
    @pytest.mark.parametrize("command", ["analyze", "spectral"])
    def test_non_finite_tol_exits_1_naming_the_flag(
        self, tmp_path, capsys, command, value
    ):
        path = write_instance(tmp_path, minimal_payload())
        assert main([command, "--input", path, "--tol", value]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "kfr: --tol must be finite\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["analyze", "--metric", "foo"], "argument --metric: invalid choice"),
            (["analyze", "--tol", "abc"], "argument --tol: invalid float value"),
            (["gen", "--seed", "x"], "argument --seed: invalid int value"),
            (["frob"], "argument command: invalid choice"),
            ([], "the following arguments are required: command"),
            (["analyze", "--bogus"], "unrecognized arguments: --bogus"),
        ],
    )
    def test_usage_errors_return_1_with_the_argparse_message(
        self, capsys, argv, message
    ):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        usage, _, error = captured.err.rpartition("kfr: error: ")
        assert usage.startswith("usage: kfr ")
        assert error.startswith(message) and error.endswith("\n")

    def test_process_exit_status_for_usage_errors_and_help(self):
        source = os.path.dirname(os.path.dirname(kfr.__file__))
        path = os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")]))

        def status(*argv):
            done = subprocess.run(
                [sys.executable, "-m", "kfr.cli", *argv],
                env=dict(os.environ, PYTHONPATH=path),
                capture_output=True,
                timeout=60,
            )
            return done.returncode

        assert status("analyze", "--metric", "foo") == 1
        assert status("--help") == 0

    def test_parser_is_built_once_per_process(self, tmp_path, monkeypatch):
        def unreachable():
            pytest.fail("main rebuilt the argument parser")

        monkeypatch.setattr(kfr.cli, "build_parser", unreachable)
        path = write_instance(tmp_path, minimal_payload())
        out = str(tmp_path / "report.json")
        assert main(["analyze", "--input", path, "--output", out]) == 0
        assert main(["analyze", "--metric", "foo"]) == 1


def _reference_write(obj, pieces, indent, level):
    # the per-element canonical writer, kept as the reference for the bytes
    # of ``dumps_canonical``
    pad = " " * (indent * level)
    inner = " " * (indent * (level + 1))
    if isinstance(obj, dict):
        if not obj:
            pieces.append("{}")
            return
        pieces.append("{\n")
        for index, (key, value) in enumerate(obj.items()):
            if not isinstance(key, str):
                raise ValueError(f"object keys must be strings, got {key!r}")
            pieces.append(f"{inner}{json.dumps(key)}: ")
            _reference_write(value, pieces, indent, level + 1)
            pieces.append(",\n" if index < len(obj) - 1 else "\n")
        pieces.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            pieces.append("[]")
            return
        pieces.append("[\n")
        for index, value in enumerate(obj):
            pieces.append(inner)
            _reference_write(value, pieces, indent, level + 1)
            pieces.append(",\n" if index < len(obj) - 1 else "\n")
        pieces.append(pad + "]")
    elif isinstance(obj, bool) or obj is None:
        pieces.append(json.dumps(obj))
    elif isinstance(obj, int):
        pieces.append(str(obj))
    elif isinstance(obj, float):
        if not math.isfinite(obj):
            raise ValueError(f"cannot serialize non-finite number {obj!r}")
        pieces.append(f"{obj:.16e}")
    elif isinstance(obj, str):
        pieces.append(json.dumps(obj))
    else:
        raise ValueError(f"cannot serialize object of type {type(obj).__name__}")


def reference_dumps(obj) -> str:
    pieces: list[str] = []
    _reference_write(obj, pieces, indent=2, level=0)
    pieces.append("\n")
    return "".join(pieces)


GOLDEN_PAYLOADS = {
    "float rows": {
        "gram": np.random.default_rng(3).standard_normal((7, 7)).tolist(),
        "row": [0.1 + 0.2, 1.0 / 3.0, -2.5e17, 1e-300],
    },
    "ints among floats": [[1.0, 2, 3.5], [4, 5, 6], [7.0, -8, 0]],
    "bools and None": [[1.0, True, 2.0], [None, 1.0], [False], [True, None]],
    "extreme floats": [-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308],
    "numpy floats": [[np.float64(0.1), np.float64(-2.0)], [1.0, np.float64(3.0)]],
    "tuples": {"pair": (1.0, 2.0), "mixed": (1.0, "a", 2), "nested": ((0.5,), ())},
    "empty and nested": [[], [[]], [[1.0], [[2.0, 3.0]]], {}, {"a": []}],
    "non-ASCII strings": {"näme": ["αβγ", "日本", " "], "x": [1.5, "é"]},
}


class TestCanonicalWriterGolden:
    @pytest.mark.parametrize("name", sorted(GOLDEN_PAYLOADS))
    def test_bytes_match_the_per_element_writer(self, name):
        payload = GOLDEN_PAYLOADS[name]
        assert dumps_canonical(payload) == reference_dumps(payload)

    def test_generated_instance_bytes_match(self):
        payload = make_instance_payload(11, 9, 3)
        assert dumps_canonical(payload) == reference_dumps(payload)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_in_float_row_raises_the_same_error(self, bad):
        payload = {"row": [1.0, 2.0, bad, math.nan]}
        with pytest.raises(ValueError) as expected:
            reference_dumps(payload)
        with pytest.raises(ValueError) as raised:
            dumps_canonical(payload)
        assert str(raised.value) == str(expected.value)
        assert "non-finite" in str(raised.value)

    def test_reindented_generated_file_keeps_its_digest(self, tmp_path):
        path = tmp_path / "instance.json"
        assert main(["gen", "--seed", "4", "--dim", "9", "--subspaces", "3",
                     "--output", str(path)]) == 0
        text = path.read_text(encoding="utf-8")
        # other indentation, and each float in its shortest spelling
        reindented = json.dumps(json.loads(text), indent=7)
        assert reindented != text
        digest = instance_digest(parse_instance_text(text))
        assert digest.startswith("sha256-f8le:")
        assert instance_digest(parse_instance_text(reindented)) == digest

    def test_digest_of_diagonal_coordinate_instance_with_negative_zeros(self):
        # diagonal W, coordinate subspaces: the form the paper's
        # decomposition reduces every W-space to; -0.0 must stay -0.0
        options = InstanceOptions()
        payload = {
            "dimension": 3,
            "gram": [[2.0, -0.0, 0.0], [0.0, -1.0, -0.0], [0.0, -0.0, 0.5]],
            "subspaces": [
                {"basis": [[1.0, -0.0, 0.0], [0.0, 1.0, 0.0]]},
                {"basis": [[-0.0, -0.0, 1.0]]},
            ],
            "weights": [1.0, 2.0],
            "options": {
                "epsilonThreshold": options.epsilon_threshold,
                "clusterTol": options.cluster_tol,
                "frameTol": options.frame_tol,
                "sweepEpsilons": list(options.sweep_epsilons),
            },
        }
        text = reference_dumps(payload)
        negative_zero = "-0.0000000000000000e+00"
        assert text.count(negative_zero) == 6
        instance = parse_instance_text(text)
        assert serialize_instance(instance) == text
        digest = instance_digest(instance)
        respelled = parse_instance_text(text.replace(negative_zero, "-0e0"))
        assert instance_digest(respelled) == digest
        positive = parse_instance_text(text.replace(negative_zero, "0.0"))
        assert instance_digest(positive) != digest

    @pytest.mark.parametrize("spelling", ["1e0", "1", "10e-1", "1.000"])
    def test_digest_ignores_number_spelling(self, spelling):
        text = json.dumps(minimal_payload())
        respelled = text.replace("1.0", spelling)
        assert respelled != text
        assert instance_digest(parse_instance_text(respelled)) == (
            instance_digest(parse_instance_text(text))
        )

    def test_digest_tells_block_sizes_apart(self):
        # the same float stream, split into blocks of 2 + 1 and of 1 + 2 rows
        rows = np.eye(3).tolist()
        payload = {
            "dimension": 3,
            "gram": np.eye(3).tolist(),
            "subspaces": [{"basis": rows[:2]}, {"basis": rows[2:]}],
            "weights": [1.0, 1.0],
        }
        first = instance_digest(parse_instance_text(json.dumps(payload)))
        payload["subspaces"] = [{"basis": rows[:1]}, {"basis": rows[1:]}]
        second = instance_digest(parse_instance_text(json.dumps(payload)))
        assert first != second

    def test_digest_does_not_depend_on_float_format(self, monkeypatch):
        instance = parse_instance_text(
            dumps_canonical(make_instance_payload(4, 9, 3))
        )
        text = serialize_instance(instance)
        digest = instance_digest(instance)
        monkeypatch.setattr(kfr.io, "FLOAT_FORMAT", "%.3e")
        assert serialize_instance(instance) != text
        assert instance_digest(instance) == digest

    def test_integer_gram_parses_to_float64(self):
        payload = minimal_payload()
        payload["gram"] = [[1, 0], [0, -2]]
        instance = parse_instance_text(json.dumps(payload))
        assert instance.gram.dtype == np.float64

    def test_large_integers_round_as_float_rounds_them(self):
        entries = [2**53 + 1, -(2**63) - 1, 2**64 + 1, 10**300 + 1]
        payload = {
            "dimension": 4,
            "gram": np.eye(4).tolist(),
            "subspaces": [{"basis": [entries]}],
            "weights": [1.0],
        }
        instance = parse_instance_text(json.dumps(payload))
        assert instance.subspace_columns[0][:, 0].tolist() == [
            float(v) for v in entries
        ]

    def test_digest_is_pinned(self):
        # no linear algebra reaches this digest: diagonal W, unit basis
        # vectors, an integer entry and an integer weight
        payload = {
            "dimension": 3,
            "gram": [[2.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, 0.5]],
            "subspaces": [
                {"basis": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]},
                {"basis": [[0.0, 1, 0.0], [0.0, 0.0, 1.0]]},
            ],
            "weights": [1.0, 2],
        }
        sizes = (3, 2, 2, 2, 6)  # dimension, blocks, their rows, epsilons
        values = (
            2.0, 0.0, 0.0, 0.0, -1.0, 0.0, 0.0, 0.0, 0.5,  # gram
            1.0, 0.0, 0.0, 0.0, 1.0, 0.0,  # basis rows of subspace 0
            0.0, 1.0, 0.0, 0.0, 0.0, 1.0,  # basis rows of subspace 1
            1.0, 2.0,  # weights
            1e-6, 1e-8, 1e-10,  # default tolerances
            1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6,  # default sweep epsilons
        )
        stream = struct.pack("<5q", *sizes) + struct.pack("<32d", *values)
        instance = parse_instance_text(json.dumps(payload))
        assert instance_digest(instance) == (
            "sha256-f8le:" + hashlib.sha256(stream).hexdigest()
        )


BEYOND_DOUBLE = 10**400

#: Edits of a valid instance: the path to the replaced value, the value, and
#: the field the error must name.
HOSTILE_NUMBERS = {
    "gram-integer-overflow": (("gram", 0, 1), BEYOND_DOUBLE, "gram row 0"),
    "basis-integer-overflow": (
        ("subspaces", 1, "basis", 0, 0),
        BEYOND_DOUBLE,
        "subspace 1 vector 0",
    ),
    "weight-integer-overflow": (("weights", 1), BEYOND_DOUBLE, "weight 1"),
    "cluster-tol-null": (("options", "clusterTol"), None, "options.clusterTol"),
    "frame-tol-list": (("options", "frameTol"), [1], "options.frameTol"),
    "sweep-epsilon-nan": (
        ("options", "sweepEpsilons", 1),
        math.nan,
        "options.sweepEpsilons",
    ),
    "sweep-epsilon-integer-overflow": (
        ("options", "sweepEpsilons", 1),
        BEYOND_DOUBLE,
        "options.sweepEpsilons",
    ),
}


class TestHostileNumbers:
    """Numbers JSON can hold but an instance cannot end in exit 1, naming
    the field, and never in a traceback."""

    @pytest.mark.parametrize("case", sorted(HOSTILE_NUMBERS))
    @pytest.mark.parametrize("command", ["analyze", "sweep", "check"])
    def test_exit_1_naming_the_field(self, tmp_path, capsys, case, command):
        base = tmp_path / "base.json"
        assert main(["gen", "--seed", "1", "--dim", "6", "--output", str(base)]) == 0
        payload = json.loads(base.read_text(encoding="utf-8"))
        path, value, field = HOSTILE_NUMBERS[case]
        target = payload
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        instance = write_instance(tmp_path, payload, name="hostile.json")
        assert main([command, "--input", instance]) == 1
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize(
        "scale, command",
        [
            (1e300, ["check"]),
            (1e300, ["spectral"]),
            (1e-310, ["analyze", "--metric", "krein"]),
            (1e-310, ["check"]),
            (1e-310, ["spectral"]),
        ],
    )
    def test_extreme_magnitude_gram_exits_1(self, tmp_path, capsys, scale, command):
        # finite entries whose polar factors or residuals leave double range
        payload = make_instance_payload(1, 6, 3)
        payload["gram"] = (np.array(payload["gram"]) * scale).tolist()
        instance = write_instance(tmp_path, payload, name="extreme.json")
        with np.errstate(all="ignore"):
            code = main([command[0], "--input", instance, *command[1:]])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("kfr: ")
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize(
        "command, field",
        [
            ("check", "sections.polarResiduals.polarProduct"),
            ("spectral", "sections.multiplicationFormResidual"),
        ],
    )
    def test_non_finite_report_value_names_its_field(
        self, tmp_path, capsys, command, field
    ):
        payload = make_instance_payload(1, 6, 3)
        payload["gram"] = (np.array(payload["gram"]) * 1e300).tolist()
        instance = write_instance(tmp_path, payload, name="extreme.json")
        with np.errstate(all="ignore"):
            assert main([command, "--input", instance]) == 1
        assert capsys.readouterr().err == (
            f"kfr: {field}: cannot serialize non-finite number inf\n"
        )

    @pytest.mark.parametrize(
        "where, scale",
        [
            ("weights", 1e-7),
            ("weights", 1e-8),
            ("gram", 1e-300),
            ("gram", 1e-20),
            ("gram", 1e160),
            ("gram", 1e300),
        ],
    )
    @pytest.mark.parametrize("metric", ["hilbert", "krein"])
    def test_bounds_do_not_depend_on_scale(
        self, tmp_path, capsys, metric, where, scale
    ):
        # the bounds scale with the squared weights and not with W; an
        # eigensolver decision that read the absolute scale got both wrong
        def bounds(payload):
            instance = write_instance(tmp_path, payload)
            assert main(["analyze", "--metric", metric, "--input", instance]) == 0
            return json.loads(capsys.readouterr().out)["sections"]["bounds"]

        payload = make_instance_payload(1, 6, 3)
        expected = bounds(payload)
        payload[where] = (np.array(payload[where]) * scale).tolist()
        scaled = bounds(payload)
        factor = scale**2 if where == "weights" else 1.0
        for key in ("lower", "upper"):
            assert scaled[key] / factor == pytest.approx(expected[key], rel=1e-12)
