"""One vocabulary of detectors and weightings: every entry point that takes
a name accepts exactly its scheme's names and rejects any other with the
one message of ``config.check_detector`` / ``config.check_weighting``."""

import re

import pytest

from scfsim import se_mc
from scfsim.config import DETECTORS, WEIGHTINGS, ConfigError, SimConfig
from scfsim.detectors import (centralized_combiners,
                              centralized_system_matrices, local_statics,
                              serving_subspace)
from scfsim.lsfd import build_ingredients, lsfd_weights
from scfsim.rng import substream
from scfsim.scheduler import cc_weighting

from conftest import small_system
from oracles import joint_batch, ue_last

# the names each vocabulary takes, and names it must refuse: the other
# scheme's detectors, and names in no vocabulary
VOCABULARIES = {
    "distributed": (DETECTORS["distributed"], ("mmse", "pmmse", "zf")),
    "centralized": (DETECTORS["centralized"], ("lmmse", "lpmmse-full", "zf")),
    "weighting": (WEIGHTINGS, ("mrc", "lsfd2")),
}
ENTRY_POINTS = (
    ("distributed", "config"), ("distributed", "local_statics"),
    ("distributed", "distributed_mc_report"),
    ("centralized", "config"), ("centralized", "centralized_system_matrices"),
    ("centralized", "centralized_combiners"),
    ("centralized", "centralized_mc_report"),
    ("weighting", "config"), ("weighting", "lsfd_weights"),
    ("weighting", "distributed_mc_report"), ("weighting", "cc_weighting"),
)


class Drawn(Exception):
    """Raised in place of a report's first Monte Carlo draw."""


def _message(vocabulary, name):
    if vocabulary == "weighting":
        return f"unknown weighting {name!r}; choose from lsfd|plsfd|l2"
    return (f"{name!r} is not a {vocabulary} detector; the {vocabulary} "
            f"scheme takes {'|'.join(DETECTORS[vocabulary])}")


@pytest.mark.parametrize("vocabulary, entry", ENTRY_POINTS,
                         ids=[f"{v}-{e}" for v, e in ENTRY_POINTS])
def test_each_entry_point_takes_exactly_its_vocabulary(monkeypatch,
                                                       vocabulary, entry):
    """Three checks with three messages had drifted: centralized_system_matrices
    refused "mrc", a centralized detector, which the centralized report
    worked around. The reports check their names before any draw."""
    _, _, _, _, pilots, ctx, cluster = small_system(seed=27)
    sub = serving_subspace(ue_last(joint_batch(ctx, substream(9, "v"), 1)[1]),
                           cluster, 0)
    statics = {name: centralized_system_matrices(ctx, cluster, name)[0]
               for name in DETECTORS["centralized"]}
    moments = build_ingredients(ctx, cluster)[0]

    def no_draw(*args, **kwargs):
        raise Drawn

    monkeypatch.setattr(se_mc, "sample_joint", no_draw)
    mc = dict(trials=64, seed=0, prelog=0.9)
    call = {
        ("distributed", "config"): lambda n: SimConfig(detector=n),
        ("distributed", "local_statics"): lambda n: local_statics(ctx, cluster, n),
        ("distributed", "distributed_mc_report"):
            lambda n: se_mc.distributed_mc_report(ctx, cluster, n, "lsfd", **mc),
        ("centralized", "config"):
            lambda n: SimConfig(scheme="centralized", detector=n),
        ("centralized", "centralized_system_matrices"):
            lambda n: centralized_system_matrices(ctx, cluster, n),
        ("centralized", "centralized_combiners"):
            lambda n: centralized_combiners(sub, ctx, n, 0, statics.get(n)),
        ("centralized", "centralized_mc_report"):
            lambda n: se_mc.centralized_mc_report(ctx, cluster, n, **mc),
        ("weighting", "config"): lambda n: SimConfig(weighting=n),
        ("weighting", "lsfd_weights"): lambda n: lsfd_weights(moments, n),
        ("weighting", "distributed_mc_report"):
            lambda n: se_mc.distributed_mc_report(ctx, cluster, "mrc", n, **mc),
        ("weighting", "cc_weighting"):
            lambda n: cc_weighting(cluster, pilots, 0, n),
    }[vocabulary, entry]
    accepted, refused = VOCABULARIES[vocabulary]
    for name in accepted:
        try:
            call(name)
        except Drawn:       # a report got past its checks to the first draw
            pass
    for name in refused:
        with pytest.raises(ConfigError,
                           match=f"^{re.escape(_message(vocabulary, name))}$"):
            call(name)
