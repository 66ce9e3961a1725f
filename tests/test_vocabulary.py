"""One vocabulary of detectors and weightings: every entry point that takes
a name accepts exactly its scheme's names and rejects any other with the
one message of ``config.check_detector`` / ``config.check_weighting``; and
in the simulator only the functions that build from a detector name compare
it with a name."""

import ast
import re
import textwrap
from pathlib import Path

import pytest

from scfsim import se_mc
from scfsim.config import DETECTORS, WEIGHTINGS, ConfigError, SimConfig
from scfsim.detectors import centralized_system_matrices, local_statics
from scfsim.lsfd import build_ingredients, lsfd_weights
from scfsim.scheduler import cc_weighting

from conftest import small_system

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


# the functions that read a detector name: its check, the set table, the two
# statics builders, and the report dispatch
NAME_READERS = {"config.check_detector", "detectors.detector_sets",
                "detectors.local_statics",
                "detectors.centralized_system_matrices", "harness.evaluate"}
NAMES = {"method", "detector"}


def _is_name(node):
    """A ``method`` / ``detector`` variable or attribute."""
    return getattr(node, "id", getattr(node, "attr", None)) in NAMES


def _is_literal(node):
    """A string literal, or a tuple, list or set of them."""
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return bool(node.elts) and all(map(_is_literal, node.elts))
    return isinstance(node, ast.Constant) and isinstance(node.value, str)


def _name_compares(source):
    """The functions of ``source`` holding a comparison of a detector name
    with a string literal or a collection of them, each once, in order."""
    hits = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Compare):
            operands = [node.left] + node.comparators
            if (any(map(_is_name, operands)) and any(map(_is_literal, operands))
                    and function not in hits):
                hits.append(function)
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), None)
    return hits


def _in_function(lines):
    return "def f():\n" + textwrap.indent(lines, "    ") + "\n"


def test_name_compares_are_caught():
    """The idioms the AP-local path removed are caught; reading the statics
    and checking a name against the vocabulary are not."""
    for line in ('if method == "mrc":\n    return est',
                 'row = a if method == "lmmse" else b',
                 'if method in ("lmmse", "lpmmse"):\n    pass',
                 'if cfg.detector != "mrc":\n    pass',
                 'ok = "mrc" == self.method'):
        assert _name_compares(_in_function(line)) == ["f"], line
    for line in ("if static is None:\n    return sub",
                 "if statics is not None:\n    pass",
                 "if name not in DETECTORS[scheme]:\n    pass",
                 'if weighting == "lsfd":\n    pass',
                 'if scheme == "distributed":\n    pass'):
        assert _name_compares(_in_function(line)) == [], line


def test_only_the_builders_read_detector_names():
    """A detector name is compared with names only where it is checked,
    tabled, turned into statics or dispatched to a report: the combiners
    and the engines read the statics, not the name."""
    package = Path(se_mc.__file__).parent
    modules = sorted(package.glob("*.py"))
    assert len(modules) > 10
    found = {f"{path.stem}.{function}" for path in modules
             for function in _name_compares(path.read_text())}
    assert found <= NAME_READERS, found - NAME_READERS
    assert {"detectors.detector_sets", "harness.evaluate"} <= found
