import ast
import dataclasses
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from scfsim import scheduler, validation
from scfsim.channel import channel_statistics, generate_scenario
from scfsim.config import ConfigError, SimConfig
from scfsim.detectors import detector_sets
from scfsim.quantization import QuantizerConfig
from scfsim.scheduler import (ClusterPlan, algorithm1_complexity,
                              cc_detector_ce, cc_weighting, equal_powers,
                              full_cluster_plan, run_algorithm1)
from scfsim.pilots import PilotPlan


def _scheduled(L=8, K=12, N=2, tau=4, seed=0, nu=0.8, b_da=4, b_ad=4,
               iterations=2):
    cfg = SimConfig(L=L, K=K, N=N, tau=tau, b_da=b_da, b_ad=b_ad)
    scn = generate_scenario(cfg, seed)
    stats = channel_statistics(scn, seed, cfg.asd_rad)
    q = QuantizerConfig(b_da=b_da, b_ad=b_ad)
    cluster, plan, powers = run_algorithm1(stats, q, tau, cfg.p_max_mw,
                                           nu=nu, iterations=iterations)
    return stats, q, cluster, plan, powers


def _assert_plan_invariants(stats, q, cluster, plan, powers, p_max):
    k_count, l_count = stats.K, stats.L
    sets = oracles.cluster_sets(cluster)
    for k in range(k_count):
        assert cluster.primary[k] in cluster.serving[k]
    for l in range(l_count):
        prim, sec = set(sets.served_primary[l]), set(sets.served_secondary[l])
        assert prim | sec == set(sets.served[l])
        assert prim & sec == set()
        pilots = [plan.pilot_of[k] for k in sec]
        assert len(pilots) == len(set(pilots))
    for k in range(k_count):
        assert k in cluster.overlap[k]
        for i in range(k_count):
            shares = bool(set(cluster.serving[i]) & set(cluster.serving[k]))
            assert (i in cluster.overlap[k]) == shares
            assert (i in cluster.overlap[k]) == (k in cluster.overlap[i])
    budget = p_max * (1 - q.rho_da)
    assert np.max(powers) == budget
    assert np.all(powers > 0) and np.all(powers <= budget)
    # a UE that is the weakest of its own neighbourhood transmits the budget
    gains = np.array([stats.beta[k, list(cluster.serving[k])].sum()
                      for k in range(k_count)])
    for k in range(k_count):
        if gains[k] == min(gains[i] for i in cluster.overlap[k]):
            assert powers[k] == budget
    # hence every connected overlap component holds a full-power UE
    seen = set()
    for k in range(k_count):
        if k in seen:
            continue
        component, frontier = set(), {k}
        while frontier:
            node = frontier.pop()
            component.add(node)
            frontier |= set(cluster.overlap[node]) - component
        seen |= component
        assert any(powers[i] == budget for i in component)


@settings(max_examples=12, deadline=None)
@given(st.integers(min_value=1, max_value=10),
       st.integers(min_value=1, max_value=16),
       st.integers(min_value=1, max_value=6),
       st.integers(min_value=0, max_value=3))
def test_algorithm1_invariants_random_sizes(L, K, tau, seed):
    stats, q, cluster, plan, powers = _scheduled(L=L, K=K, tau=tau, seed=seed)
    _assert_plan_invariants(stats, q, cluster, plan, powers, 100.0)


def test_single_ue_reduction():
    stats, q, cluster, plan, powers = _scheduled(L=5, K=1, tau=1, seed=3)
    assert cluster.primary[0] == int(np.argmax(stats.beta[0]))
    assert plan.pilot_of[0] == 0
    assert powers[0] == 100.0 * (1 - q.rho_da)


def test_first_tau_ues_get_orthogonal_pilots():
    _, _, _, plan, _ = _scheduled(L=6, K=10, tau=4, seed=5)
    assert list(plan.pilot_of[:4]) == [0, 1, 2, 3]


def test_nu_zero_gives_equal_power():
    _, q, _, _, powers = _scheduled(L=6, K=9, tau=3, seed=6, nu=0.0)
    assert np.allclose(powers, 100.0 * (1 - q.rho_da))
    assert np.max(powers) == 100.0 * (1 - q.rho_da)


def test_determinism():
    a = _scheduled(seed=11)
    b = _scheduled(seed=11)
    assert np.array_equal(a[2].D, b[2].D)
    assert np.array_equal(a[3].pilot_of, b[3].pilot_of)
    assert np.array_equal(a[4], b[4])


def test_pilot_override_is_respected():
    cfg = SimConfig(L=6, K=8, N=2, tau=4)
    scn = generate_scenario(cfg, 2)
    stats = channel_statistics(scn, 2, cfg.asd_rad)
    q = QuantizerConfig(b_da=4, b_ad=4)
    forced = np.array([3, 3, 2, 1, 0, 0, 1, 2])
    _, plan, _ = run_algorithm1(stats, q, 4, 100.0, pilot_override=forced)
    assert np.array_equal(plan.pilot_of, forced)


@pytest.mark.parametrize("override, match", (
    ([0, 1, 2], "3 pilots for 5 UEs"), ([0, 1, 2, 0, 1, 2], "6 pilots"),
    ([0, 1, 2, 3, 0], "out of range"), ([0, 1, 2, -1, 0], "out of range"),
    ([0, 1, 2, 0.5, 1], "pilot_of"), ([[0, 1, 2, 0, 1]], "pilot_of")))
def test_malformed_pilot_override_is_refused_before_the_first_pass(
        monkeypatch, override, match):
    """A 3-UE override on 5 UEs came back as a 3-UE PilotPlan beside a 5-UE
    ClusterPlan, and an out-of-range one was refused only after every pass
    had run."""
    cfg = SimConfig(L=6, K=5, N=2, tau=3)
    stats = channel_statistics(generate_scenario(cfg, 2), 2, cfg.asd_rad)
    q = QuantizerConfig(b_da=4, b_ad=4)

    def no_pass(*args, **kwargs):
        raise AssertionError("an Algorithm-1 pass ran")

    monkeypatch.setattr(scheduler, "fractional_powers", no_pass)
    with pytest.raises(ValueError, match=match):
        run_algorithm1(stats, q, 3, 100.0, pilot_override=override)


@pytest.mark.parametrize("counts, field", (
    (dict(tau=3.0), "tau"), (dict(tau=True), "tau"),
    (dict(iterations=True), "iterations"), (dict(iterations=2.0), "iterations")),
    ids=("float-tau", "bool-tau", "bool-iterations", "float-iterations"))
def test_algorithm1_refuses_non_integer_counts_before_the_first_pass(
        monkeypatch, counts, field):
    """A tau of 3.0 raised a bare TypeError inside the pilot pass, and
    iterations=True ran one pass."""
    cfg = SimConfig(L=6, K=5, N=2, tau=3)
    stats = channel_statistics(generate_scenario(cfg, 2), 2, cfg.asd_rad)
    q = QuantizerConfig(b_da=4, b_ad=4)

    def no_pass(*args, **kwargs):
        raise AssertionError("an Algorithm-1 pass ran")

    monkeypatch.setattr(scheduler, "fractional_powers", no_pass)
    kwargs = dict(tau=3, p_max=100.0, iterations=2) | counts
    with pytest.raises(ValueError, match=rf"^{field} must be an integer >= 1"):
        run_algorithm1(stats, q, **kwargs)


def test_empty_candidate_set_raises():
    cfg = SimConfig(L=4, K=4, N=2, tau=2)
    scn = generate_scenario(cfg, 1)
    stats = channel_statistics(scn, 1, cfg.asd_rad)
    q = QuantizerConfig()
    with pytest.raises(ValueError):
        run_algorithm1(stats, q, 2, 100.0, d_bar=1e-6)
    with pytest.raises(ConfigError, match=r"d_bar.*UEs \[0, 1, 2, 3\]"):
        run_algorithm1(stats, q, 2, 100.0, d_bar=1e-6)


def test_d_bar_limits_the_primary_ap():
    cfg = SimConfig(L=16, K=20, N=2, tau=5)
    scn = generate_scenario(cfg, 5)
    stats = channel_statistics(scn, 5, cfg.asd_rad)
    dist = np.linalg.norm(scn.ue_positions[:, None, :]
                          - scn.ap_positions[None, :, :], axis=-1)
    d_bar = 1.01 * dist.min(axis=1).max()      # every UE keeps a candidate
    strongest = np.argmax(stats.beta, axis=1)
    assert np.any(dist[np.arange(cfg.K), strongest] > d_bar)
    cluster, _, _ = run_algorithm1(stats, QuantizerConfig(), cfg.tau,
                                   100.0, d_bar=d_bar)
    for k in range(cfg.K):
        candidates = np.flatnonzero(dist[k] <= d_bar)
        assert dist[k, cluster.primary[k]] <= d_bar
        assert cluster.primary[k] == candidates[np.argmax(stats.beta[k, candidates])]


def test_one_cluster_plan_per_pass(monkeypatch):
    built = []

    def counted(*args):
        built.append(ClusterPlan(*args))
        return built[-1]

    monkeypatch.setattr(scheduler, "ClusterPlan", counted)
    cluster = _scheduled(iterations=3)[2]
    assert len(built) == 3 and cluster is built[-1]


_SERVE_ALL = np.ones((3, 2), dtype=bool)       # K=3 UEs, L=2 APs


@pytest.mark.parametrize("d, primary, field", (
    (_SERVE_ALL, [-1, 0, 1], "primary"), (_SERVE_ALL, [0, 1], "primary"),
    (_SERVE_ALL, [0.7, 1.2, 0], "primary"),
    (_SERVE_ALL, np.array([0.0, 1.0, 0.0]), "primary"),
    (_SERVE_ALL, [True, 0, 1], "primary"),
    (_SERVE_ALL, np.array([True, False, True]), "primary"),
    (_SERVE_ALL, [2, 0, 1], "primary"), (_SERVE_ALL, 0, "primary"),
    (_SERVE_ALL, [[0, 1, 0]], "primary"),
    (np.ones(3, dtype=bool), [0, 0, 0], "D"),
    (np.ones((3, 2, 1), dtype=bool), [0, 1, 0], "D"),
    (np.full((3, 2), 0.5), [0, 1, 0], "D"), (np.full((3, 2), 2), [0, 1, 0], "D"),
    (np.eye(3, 2, dtype=bool), [0, 1, 1], "primary")),
    ids=("negative", "short", "floats", "integral-floats", "bool-in-list",
         "bool-array", "index-L", "scalar", "2-d-primary", "1-d-D", "3-d-D",
         "float-D", "int-D-not-0/1", "primary-not-served"))
def test_cluster_plan_rejects_malformed_decisions(d, primary, field):
    """A primary of -1 wrapped to AP L-1 in the serve check, a short primary
    list was accepted, floats and bools were floored to AP indices, an index
    >= L or a 1-D D raised a bare IndexError, and a 3-D D was accepted."""
    with pytest.raises(ValueError, match=rf"^{field}\b"):
        ClusterPlan(d, primary)


def test_cluster_plan_converts_an_integer_0_1_d():
    d = np.zeros((4, 3), dtype=bool)
    d[:, 0] = d[1, 2] = d[3, 1] = True
    primary = np.array([0, 2, 0, 1])
    for dtype in (np.uint8, np.int32, int):
        _assert_same_fields(ClusterPlan(d.astype(dtype), primary),
                            ClusterPlan(d, primary))


def test_cluster_plan_owns_read_only_decisions():
    """The plan kept the caller's D and primary: editing them afterwards
    left UE 1 unserved by its primary AP while the cached M_1 still read
    [0 1]. The plan now keeps copies that cannot be written."""
    for d_dtype, p_dtype in ((bool, int), (np.uint8, np.int32)):
        d, primary = np.ones((3, 2), dtype=d_dtype), np.array([0, 1, 0], p_dtype)
        plan = ClusterPlan(d, primary)
        plan.serving, plan.overlap          # cached before the edits
        d[1, 1], d[:, 0], primary[:] = False, False, 1
        assert plan.D.all() and plan.primary.tolist() == [0, 1, 0]
        _assert_views_match_eager_sets(plan)
        for field in (plan.D, plan.primary):
            with pytest.raises(ValueError, match="read-only"):
                field[0] = 0
        assert plan.D.all() and plan.primary.tolist() == [0, 1, 0]


def test_cluster_plan_derived_sets_are_read_only():
    """M_k, D_l, Q_k and the overlap mask were writable: on a plan where
    UEs 0 and 1 share no AP, setting overlap_mask[0, 1] made a later
    overlap[0] read [0 1] for every reader."""
    d = np.array([[True, False], [False, True], [True, True]])
    plan = ClusterPlan(d, np.array([0, 1, 0]))
    fields = (plan.serving[0], plan.served[0], plan.overlap_mask, plan.pair_of)
    for field in fields:
        with pytest.raises(ValueError, match="read-only"):
            field[0] = 1
    with pytest.raises(ValueError, match="read-only"):
        plan.overlap_mask[0, 1] = True
    assert plan.overlap[0].tolist() == [0, 2]
    with pytest.raises(ValueError, match="read-only"):
        plan.overlap[0][0] = 1
    assert plan.serving[0].tolist() == [0] and plan.served[0].tolist() == [0, 2]


def _assert_same_fields(got, ref):
    """Equal decisions, dtypes included; a cluster plan's derived views
    must match the eager sets too."""
    assert type(got) is type(ref)
    if isinstance(ref, np.ndarray):
        assert got.dtype == ref.dtype and np.array_equal(got, ref)
        return
    for field in dataclasses.fields(ref):
        a, b = getattr(got, field.name), getattr(ref, field.name)
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype and np.array_equal(a, b), field.name
        else:
            assert a == b, field.name
    if isinstance(ref, scheduler.ClusterPlan):
        _assert_views_match_eager_sets(got)


def _assert_views_match_eager_sets(plan):
    sets = oracles.cluster_sets(plan)
    assert tuple(tuple(m.tolist()) for m in plan.serving) == sets.serving
    assert tuple(tuple(q.tolist()) for q in plan.overlap) == sets.overlap
    assert all(v.dtype == np.intp for v in plan.serving + plan.overlap)
    mask = np.zeros((plan.K, plan.K), dtype=bool)
    for k, ues in enumerate(sets.overlap):
        mask[k, list(ues)] = True
    assert np.array_equal(plan.overlap_mask, mask)
    assert tuple(tuple(s.tolist()) for s in plan.served) == sets.served
    pairs = [(k, l) for k, aps in enumerate(sets.serving) for l in aps]
    assert [plan.pair_of[k, l] for k, l in pairs] == list(range(len(pairs)))
    assert np.count_nonzero(plan.pair_of >= 0) == len(pairs)
    for l in range(plan.L):
        _, served, primary, secondary = detector_sets(plan, "lpmmse", l)
        assert tuple(served.tolist()) == sets.served[l]
        assert tuple(primary.tolist()) == sets.served_primary[l]
        assert tuple(secondary.tolist()) == sets.served_secondary[l]
    _assert_served_pair_layout(plan)
    # derived once: a second read returns the same object
    assert plan.overlap_mask is plan.overlap_mask and plan.serving is plan.serving


def _assert_served_pair_layout(plan):
    """The plan's served-pair layout: ``pairs`` is ``np.nonzero(D)``,
    ``pair_of`` numbers it and ``pair_rows[k]`` is UE k's run of it; the
    size classes split range(K) by |M_k|, ascending. None can be written,
    and each is built once."""
    ues, aps = plan.pairs
    n_pairs = np.count_nonzero(plan.D)
    assert np.array_equal(ues, np.nonzero(plan.D)[0])
    assert np.array_equal(aps, np.nonzero(plan.D)[1])
    assert ues.dtype == aps.dtype == np.intp
    assert np.array_equal(plan.pair_of[plan.pairs], np.arange(n_pairs))
    assert plan.pair_of.dtype == np.intp
    assert np.all(plan.pair_of[~plan.D] == -1)
    assert len(plan.pair_rows) == plan.K
    for k, rows in enumerate(plan.pair_rows):
        assert np.array_equal(np.arange(n_pairs)[rows],
                              plan.pair_of[k, plan.serving[k]])
        assert np.all(ues[rows] == k) and np.array_equal(aps[rows], plan.serving[k])
    sizes = plan.D.sum(axis=1)
    classes = plan.size_classes
    assert np.array_equal(np.sort(np.concatenate(classes)), np.arange(plan.K))
    class_sizes = [sizes[c[0]] for c in classes]
    assert class_sizes == sorted(set(sizes.tolist()))
    for members, m in zip(classes, class_sizes):
        assert np.array_equal(members, np.flatnonzero(sizes == m))
    for array in (ues, aps, plan.pair_of) + classes:
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 0
    assert isinstance(plan.pair_rows, tuple) and isinstance(classes, tuple)
    assert plan.pairs is plan.pairs and plan.pair_rows is plan.pair_rows
    assert plan.size_classes is classes


# the calls that derive the served-pair layout, and the names whose read
# makes them do so: finding or counting the pairs, or the serving-set sizes,
# in D, and summing serving-set sizes into row offsets
_LAYOUT_CALLS = {
    "nonzero": {"D"}, "flatnonzero": {"D"}, "count_nonzero": {"D"},
    "sum": {"D"}, "cumsum": {"D", "serving", "sizes", "size"}}


def _layout_reads(source):
    """Line numbers of the calls in ``source`` that derive the served-pair
    layout: a call of ``_LAYOUT_CALLS`` whose operands read one of its
    names, as an attribute or a variable."""
    hits = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
        operands = node.args + [kw.value for kw in node.keywords]
        if isinstance(func, ast.Attribute):
            operands.append(func.value)
        read = {getattr(n, "attr", getattr(n, "id", None))
                for x in operands for n in ast.walk(x)}
        if read & _LAYOUT_CALLS.get(name, set()):
            hits.append(node.lineno)
    return hits


def test_layout_reads_are_caught():
    for line in ("kk, ll = np.nonzero(cluster.D)",
                 "n = np.count_nonzero(cluster.D)",
                 "sizes = cluster.D.sum(axis=1)",
                 "bounds = np.concatenate(([0], np.cumsum(sizes)))",
                 "end = np.cumsum([m.size for m in cluster.serving])"):
        assert _layout_reads(line) == [1], line
    for line in ("kk, ll = cluster.pairs", "g[:, k].sum(axis=1)",
                 "np.flatnonzero(plan.pilot_of == t)",
                 "f = np.sum(cv * noise[serving[k], :, t], axis=1)"):
        assert _layout_reads(line) == [], line


def test_only_the_scheduler_lays_out_the_served_pairs():
    """Outside ``scheduler``, no module finds the served pairs, counts them
    or sums serving-set sizes into row offsets: each reads the plan's
    ``pairs``, ``pair_of``, ``pair_rows`` and ``size_classes``."""
    package = Path(scheduler.__file__).parent
    modules = sorted(package.glob("*.py"))
    assert len(modules) > 10
    hits = [f"{path.name}:{line}" for path in modules if path.name != "scheduler.py"
            for line in _layout_reads(path.read_text())]
    assert not hits


@settings(max_examples=60, deadline=None)
@given(K=st.integers(min_value=1, max_value=12),
       L=st.integers(min_value=1, max_value=8), data=st.data())
def test_cluster_views_match_eager_sets_on_random_masks(K, L, data):
    d = np.array(data.draw(st.lists(st.lists(st.booleans(), min_size=L, max_size=L),
                                    min_size=K, max_size=K)), dtype=bool)
    primary = np.array(data.draw(st.lists(st.integers(min_value=0, max_value=L - 1),
                                          min_size=K, max_size=K)))
    d[np.arange(K), primary] = True
    _assert_views_match_eager_sets(ClusterPlan(d, primary))


def test_cluster_views_match_eager_sets_on_edge_plans():
    stats, _, cluster, _, _ = _scheduled(L=6, K=9, tau=3, seed=23)
    _assert_views_match_eager_sets(cluster)
    _assert_views_match_eager_sets(full_cluster_plan(stats))
    # UE 2 served by AP 3 alone; AP 1 serves nobody
    d = np.zeros((4, 4), dtype=bool)
    d[:, 0] = True
    d[[0, 1], 2] = True
    d[2] = [False, False, False, True]
    plan = ClusterPlan(d, np.array([0, 2, 3, 0]))
    assert list(plan.serving[2]) == [3] and not plan.D[:, 1].any()
    _assert_views_match_eager_sets(plan)


@settings(max_examples=40, deadline=None)
@given(tau=st.integers(min_value=2, max_value=5), data=st.data())
def test_copilot_readers_match_eager_sets(tau, data):
    pilot_of = data.draw(st.lists(st.integers(min_value=0, max_value=tau - 1),
                                  min_size=2, max_size=10))
    pilots = PilotPlan(tau, pilot_of)
    assert pilots.pilot_of.dtype == int
    copilot = oracles.copilot_sets(pilot_of)
    n_users = len(pilot_of)
    d = np.zeros((n_users, 3), dtype=bool)
    d[:, 0] = True
    d[::2, 1] = True
    d[1::3, 2] = True
    d[0, 0] = False
    plan = ClusterPlan(d, np.argmax(d, axis=1))
    sets = oracles.cluster_sets(plan)
    for k in range(n_users):
        m = len(sets.serving[k])
        for weighting, ues in (("plsfd", set(sets.overlap[k])),
                               ("lsfd", set(range(n_users)))):
            shared = len(ues & set(copilot[k]))
            cm = (m * (m + 1) * len(ues)) // 2 + (m * (5 * m + 1) * shared) // 2 \
                + (m**3 + 3 * m**2 - m) // 3
            assert cc_weighting(plan, pilots, k, weighting) == (cm, m)
    others = [i for i in range(n_users) if i not in copilot[0]]
    if len(copilot[0]) > 1 and others:
        cases = validation.theorem1_cases(pilots)
        assert cases["copilot-same-ap"] == (0, copilot[0][1], 0, 0)
        assert cases["orthogonal-cross-ap"] == (0, others[0], 0, 1)


def _assert_matches_reference(stats, tau, **options):
    q = QuantizerConfig(b_da=3, b_ad=2)

    def run(algorithm):
        try:
            return algorithm(stats, q, tau, 100.0, **options)
        except ValueError as exc:
            return exc

    got, ref = run(run_algorithm1), run(oracles.run_algorithm1)
    if isinstance(ref, Exception):
        # the same UEs are named; ConfigError is the ValueError the CLI reports
        assert isinstance(got, ConfigError) and "d_bar" in str(got)
        assert str(got).endswith(str(ref)[str(ref).index("UEs"):])
        return
    for got_plan, ref_plan in zip(got, ref, strict=True):
        _assert_same_fields(got_plan, ref_plan)


@settings(max_examples=80, deadline=None)
@given(L=st.integers(min_value=1, max_value=12),
       K=st.integers(min_value=1, max_value=30),
       tau=st.integers(min_value=1, max_value=6),
       seed=st.integers(min_value=0, max_value=50),
       rayleigh=st.booleans(),
       nu=st.floats(min_value=0.0, max_value=1.0),
       eta_db=st.one_of(st.just(-np.inf), st.floats(min_value=-40.0, max_value=10.0)),
       d_bar=st.one_of(st.none(), st.floats(min_value=100.0, max_value=900.0)),
       iterations=st.integers(min_value=1, max_value=4),
       data=st.data())
def test_algorithm1_matches_loop_reference(L, K, tau, seed, rayleigh, nu, eta_db,
                                           d_bar, iterations, data):
    """The array-step scheduler reproduces the loop-based one exactly."""
    cfg = SimConfig(L=L, K=K, N=2, tau=tau)
    scn = generate_scenario(cfg, seed)
    stats = channel_statistics(scn, seed, cfg.asd_rad, rayleigh=rayleigh)
    override = data.draw(st.one_of(
        st.none(), st.lists(st.integers(min_value=0, max_value=tau - 1),
                            min_size=K, max_size=K)))
    _assert_matches_reference(stats, tau, eta_db=eta_db, nu=nu, d_bar=d_bar,
                              iterations=iterations, pilot_override=override)


@pytest.mark.parametrize("fading", ("rician", "rayleigh"))
@pytest.mark.parametrize("seed", (1, 2, 3))
def test_algorithm1_matches_loop_reference_on_desk_drops(seed, fading):
    cfg = SimConfig(L=16, K=20, N=3, tau=5, fading=fading)
    stats = channel_statistics(generate_scenario(cfg, seed), seed, cfg.asd_rad,
                               rayleigh=(fading == "rayleigh"))
    _assert_matches_reference(stats, cfg.tau)


# --- complexity accounting --------------------------------------------------

def test_cc_plsfd_worked_examples():
    # |M|=2, |Q|=5, |P∩Q|=1 -> 15 + 11 + 6 = 32 CMs, 2 CDs
    d = np.zeros((5, 4), dtype=bool)
    d[0, :2] = True
    for k in range(1, 5):
        d[k, 0] = True
    plan = ClusterPlan(d, np.zeros(5, dtype=int))
    pilots = PilotPlan(4, [0, 1, 2, 3, 1])             # P_0 ∩ Q_0 = {0}
    assert len(plan.serving[0]) == 2 and len(plan.overlap[0]) == 5
    assert cc_weighting(plan, pilots, 0, "plsfd") == (32, 2)

    # |M|=1, |Q|=1, |P∩Q|=1 -> 1 + 3 + 1 = 5 CMs, 1 CD
    d = np.zeros((2, 4), dtype=bool)
    d[0, 0] = True
    d[1, 1] = True
    plan = ClusterPlan(d, np.array([0, 1]))
    pilots = PilotPlan(2, [0, 0])
    assert cc_weighting(plan, pilots, 0, "plsfd") == (5, 1)


def test_cc_lsfd_vs_plsfd():
    d = np.ones((5, 3), dtype=bool)       # everyone overlaps everyone
    plan = ClusterPlan(d, np.zeros(5, dtype=int))
    pilots = PilotPlan(2, [0, 1, 0, 1, 0])
    for k in range(5):
        assert (cc_weighting(plan, pilots, k, "lsfd")
                == cc_weighting(plan, pilots, k, "plsfd"))
        assert cc_weighting(plan, pilots, k, "l2") == (0, 0)
    with pytest.raises(ValueError, match="unknown weighting 'lsfd2'"):
        cc_weighting(plan, pilots, 0, "lsfd2")

    # counts grow linearly in K with all else fixed: UE 0 is served by APs
    # 0 and 1 on pilot 0; the added UEs sit on AP 2 and pilot 1, outside
    # Q_0 and P_0
    counts = {}
    for n_users in (10, 20, 30):
        d = np.zeros((n_users, 3), dtype=bool)
        d[0, :2] = True
        d[1:, 2] = True
        primary = np.full(n_users, 2)
        primary[0] = 0
        plan = ClusterPlan(d, primary)
        pilots = PilotPlan(2, [0] + [1] * (n_users - 1))
        assert list(plan.overlap[0]) == [0]
        assert oracles.copilot_sets(pilots.pilot_of)[0] == (0,)
        counts[n_users] = cc_weighting(plan, pilots, 0, "lsfd")[0]
        # |M|=2, |Q|=1, |P∩Q|=1 -> 3 + 11 + 6 = 20 CMs for every K
        assert cc_weighting(plan, pilots, 0, "plsfd") == (20, 2)
    assert counts[30] - counts[20] == counts[20] - counts[10] > 0


def test_cc_lsfd_dominates_plsfd():
    stats, _, cluster, pilots, _ = _scheduled(L=8, K=14, tau=4, seed=21)
    for k in range(stats.K):
        assert (cc_weighting(cluster, pilots, k, "lsfd")[0]
                >= cc_weighting(cluster, pilots, k, "plsfd")[0])


def test_cc_detector_ce_formulas():
    stats, _, cluster, pilots, _ = _scheduled(L=6, K=10, tau=4, seed=22)
    sets = oracles.cluster_sets(cluster)
    n_ant, tau = 2, 10
    for l in range(stats.L):
        got = cc_detector_ce(cluster, "lpmmse", l, n_ant, tau)
        assert got == n_ant * (n_ant + tau) * len(sets.served_primary[l])
        full = cc_detector_ce(cluster, "lpmmse-full", l, n_ant, tau)
        assert full - got == n_ant * (n_ant + tau) * len(sets.served_secondary[l])
    for k in range(stats.K):
        got = cc_detector_ce(cluster, "pmmse", k, n_ant, tau)
        primary_served = set(sets.served[cluster.primary[k]])
        expected = n_ant * (n_ant + tau) * len(
            set(cluster.overlap[k]) & primary_served) * len(cluster.serving[k])
        assert got == expected
        full = cc_detector_ce(cluster, "pmmse-full", k, n_ant, tau)
        assert full == n_ant * (n_ant + tau) * len(cluster.overlap[k]) * len(cluster.serving[k])
    with pytest.raises(ValueError):
        cc_detector_ce(cluster, "zf", 0, n_ant, tau)


def test_cc_detector_ce_point_value():
    # N=2, tau=10, |N_l^P|=3 -> 72
    d = np.zeros((3, 2), dtype=bool)
    d[:, 0] = True
    plan = ClusterPlan(d, np.zeros(3, dtype=int))
    assert cc_detector_ce(plan, "lpmmse", 0, 2, 10) == 72


def test_algorithm1_complexity_formula():
    # K=tau=1, L=1, |L(d_bar)|=1, |Q_0|=1 -> 2K + 2tau = 4
    plan1 = ClusterPlan(np.ones((1, 1), dtype=bool),
                        np.zeros(1, dtype=int))
    assert algorithm1_complexity(plan1, 1, 1, 1) == 4

    # independence of N is structural (no N argument); linearity in overlap
    K = 4
    d = np.zeros((K, K), dtype=bool)
    d[np.arange(K), np.arange(K)] = True
    plan = ClusterPlan(d, np.arange(K))
    base = algorithm1_complexity(plan, 10, 3, 5)
    doubled_d = d.copy()
    doubled_d[:, 0] = True
    plan2 = ClusterPlan(doubled_d, np.arange(K))
    extra = sum(len(plan2.overlap[k]) for k in range(K)) - K
    assert algorithm1_complexity(plan2, 10, 3, 5) == base + extra


def test_estimates_required_matches_proposition_sets():
    stats, _, cluster, _, _ = _scheduled(L=6, K=9, tau=3, seed=23)
    sets = oracles.cluster_sets(cluster)

    def estimates(detector, index):
        return set(detector_sets(cluster, detector, index)[2])

    for l in range(stats.L):
        assert estimates("lpmmse", l) == set(sets.served_primary[l])
        assert estimates("lpmmse-full", l) == set(sets.served[l])
    for k in range(stats.K):
        assert estimates("pmmse-full", k) == set(cluster.overlap[k])


def test_full_cluster_plan_and_equal_power():
    stats, q, *_ = _scheduled(L=3, K=4, tau=2, seed=24)
    full = full_cluster_plan(stats)
    assert all(len(m) == stats.L for m in full.serving)
    assert all(len(o) == stats.K for o in full.overlap)
    powers = equal_powers(stats.K, 100.0, q.rho_da)
    assert np.all(powers == 100.0 * (1 - q.rho_da))
