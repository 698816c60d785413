"""Write a parsed instance back as canonical text, for round-trip tests;
no ``kfr`` command writes instances this way (``gen`` writes its payload)."""

from kfr.io import ProblemInstance, dumps_canonical


def instance_payload(instance: ProblemInstance) -> dict:
    """Instance as a canonical-serializable object tree."""
    return {
        "dimension": instance.dimension,
        "gram": instance.gram.tolist(),
        "subspaces": [
            {"basis": block.T.tolist()} for block in instance.subspace_columns
        ],
        "weights": [float(w) for w in instance.weights],
        "options": {
            "epsilonThreshold": instance.options.epsilon_threshold,
            "clusterTol": instance.options.cluster_tol,
            "frameTol": instance.options.frame_tol,
            "sweepEpsilons": list(instance.options.sweep_epsilons),
        },
    }


def serialize_instance(instance: ProblemInstance) -> str:
    return dumps_canonical(instance_payload(instance))
