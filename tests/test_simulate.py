import math

import numpy as np
import pytest

import coherence_lab as cl
from coherence_lab import simulate
from coherence_lab.errors import BadParameterError, UnstableStepError

from conftest import dense_laplacian, naive_em, random_connected_graph


def test_two_node_noise_free_matches_analytic():
    cfg = cl.SimConfig(dt=1e-3, horizon=200.0, trials=20, seed=11)
    res = cl.simulate_nf(cl.build_path(2), (0,), cfg)
    assert res.stderr > 0.0
    assert abs(res.value - 0.5) <= 3.0 * res.stderr


def test_all_leaders_gives_exact_zero():
    cfg = cl.SimConfig(dt=1e-3, horizon=1.0, trials=3, seed=0)
    res = cl.simulate_nf(cl.build_cycle(4), range(4), cfg)
    assert res.value == 0.0 and res.stderr == 0.0


def test_cycle_eight_matches_closed_form():
    cfg = cl.SimConfig(dt=1e-3, horizon=150.0, trials=12, seed=5)
    res = cl.simulate_nf(cl.build_cycle(8), (0, 4), cfg)
    analytic = cl.cycle_nf_coherence((4, 4), n=8)
    assert analytic == pytest.approx(2.5)
    assert abs(res.value - analytic) <= 3.0 * res.stderr


def test_two_node_noise_corrupted_matches_analytic():
    cfg = cl.SimConfig(dt=1e-3, horizon=200.0, trials=20, seed=13)
    res = cl.simulate_nc(cl.build_path(2), (0,), cfg, kappa=1.0)
    assert abs(res.value - 1.5) <= 3.0 * res.stderr


def test_square_cycle_noise_corrupted_matches_analytic():
    cfg = cl.SimConfig(dt=1e-3, horizon=150.0, trials=12, seed=17)
    res = cl.simulate_nc(cl.build_cycle(4), (0, 2), cfg, kappa=1.0)
    assert abs(res.value - 5.0 / 3.0) <= 3.0 * res.stderr


def test_discretization_bias_shrinks_with_dt():
    # Euler-Maruyama inflates each mode's variance by 1/(1 - lambda dt / 2),
    # so halving dt must move the estimate toward the analytic value
    g = cl.build_path(2)
    estimates = []
    for dt in (0.2, 0.1, 0.05):
        cfg = cl.SimConfig(dt=dt, horizon=3000.0, trials=16, seed=7)
        estimates.append(cl.simulate_nf(g, (0,), cfg).value)
    gaps = [abs(e - 0.5) for e in estimates]
    assert gaps[0] > gaps[1] > gaps[2]
    assert all(e > 0.5 for e in estimates)


def test_seed_determinism_bit_for_bit():
    cfg = cl.SimConfig(dt=1e-2, horizon=20.0, trials=6, seed=42)
    g = cl.build_cycle(5)
    a = cl.simulate_nf(g, (0, 2), cfg)
    b = cl.simulate_nf(g, (0, 2), cfg)
    assert a.value == b.value and a.stderr == b.stderr
    c = cl.simulate_nf(g, (0, 2), cl.SimConfig(dt=1e-2, horizon=20.0,
                                               trials=6, seed=43))
    assert c.value != a.value


@pytest.mark.parametrize("dynamics", ["nf", "nc"])
def test_same_seed_repeats_bit_for_bit_on_both_dynamics(rng, dynamics):
    g = random_connected_graph(rng, 12, extra_edges=6)
    cfg = cl.SimConfig(dt=1e-2, horizon=40.0, trials=3, seed=7)
    if dynamics == "nf":
        runs = [cl.simulate_nf(g, (0, 5), cfg) for _ in range(2)]
    else:
        runs = [cl.simulate_nc(g, (0, 5), cfg, kappa=[2.0, 0.5]) for _ in range(2)]
    assert runs[0] == runs[1]
    assert runs[0].steps == 4000


@pytest.mark.parametrize("dynamics", ["nf", "nc"])
def test_value_depends_only_on_the_spectrum(rng, dynamics):
    # relabelling the nodes permutes the system matrix to P A P^T, which
    # keeps its eigenvalues; the noise is drawn mode by mode, so the estimate
    # sees nothing else and must not move beyond rounding
    n = 12
    g = random_connected_graph(rng, n, extra_edges=2)
    perm = rng.permutation(n)
    h = cl.build_graph([(int(perm[u]), int(perm[v]), w) for u, v, w in g.edges],
                       node_count=n)
    leaders = (0, 5, 9)
    moved = tuple(int(perm[v]) for v in leaders)
    cfg = cl.SimConfig(dt=1e-2, horizon=40.0, trials=4, seed=3)
    if dynamics == "nf":
        a, b = cl.simulate_nf(g, leaders, cfg), cl.simulate_nf(h, moved, cfg)
    else:
        kappa = {0: 2.0, 5: 0.5, 9: 1.5}
        a = cl.simulate_nc(g, leaders, cfg, kappa=kappa)
        b = cl.simulate_nc(h, moved, cfg, kappa={int(perm[v]): k for v, k in kappa.items()})
    assert a.value == pytest.approx(b.value, rel=1e-12)
    assert a.stderr == pytest.approx(b.stderr, rel=1e-12)


def test_unstable_step_rejected():
    # grounded system eigenvalue 1 means dt must stay below 2
    with pytest.raises(UnstableStepError):
        cl.simulate_nf(cl.build_path(2), (0,), cl.SimConfig(dt=2.5, horizon=10.0))


def test_stiff_leader_weight_needs_small_step():
    cfg = cl.SimConfig(dt=1e-3, horizon=1.0)
    with pytest.raises(UnstableStepError):
        cl.simulate_nc(cl.build_path(2), (0,), cfg, kappa=1e6)


def test_config_validation():
    with pytest.raises(BadParameterError):
        cl.SimConfig(dt=0.0, horizon=1.0)
    with pytest.raises(BadParameterError):
        cl.SimConfig(dt=1e-3, horizon=-1.0)
    with pytest.raises(BadParameterError):
        cl.SimConfig(dt=1e-3, horizon=1.0, burn_in=1.0)
    with pytest.raises(BadParameterError):
        cl.SimConfig(dt=1e-3, horizon=1.0, trials=0)


@pytest.mark.parametrize("bad", [dict(trials=2.5), dict(trials=True), dict(trials="8"),
                                 dict(seed=1.5), dict(seed=-1), dict(seed=None)])
def test_config_requires_integer_trials_and_seed(bad):
    with pytest.raises(BadParameterError):
        cl.SimConfig(dt=1e-3, horizon=1.0, **bad)


def test_config_accepts_numpy_integers():
    cfg = cl.SimConfig(dt=0.1, horizon=1.0, trials=np.int64(2), seed=np.int64(4))
    res = cl.simulate_nf(cl.build_path(3), (0,), cfg)
    ref = cl.simulate_nf(cl.build_path(3), (0,),
                         cl.SimConfig(dt=0.1, horizon=1.0, trials=2, seed=4))
    assert res.value == ref.value


def test_burn_in_accounting():
    cfg = cl.SimConfig(dt=0.1, horizon=10.0, burn_in=0.25, trials=2, seed=1)
    res = cl.simulate_nf(cl.build_path(3), (0,), cfg)
    assert res.steps == 100
    assert res.kept_steps == 75


# ---------------------------------------------------------------------------
# the modal route against the plain step loop on the same noise streams

def _grounded(g, S):
    keep = [v for v in range(g.node_count) if v not in set(S)]
    return dense_laplacian(g)[np.ix_(keep, keep)]


def _shifted(g, weights):
    A = dense_laplacian(g)
    for v, kv in weights.items():
        A[v, v] += kv
    return A


def _stable_dt(A):
    return 0.25 / float(np.linalg.eigvalsh(A)[-1])


def _assert_matches_loop(res, A, cfg):
    value, stderr, steps, kept = naive_em(A, cfg)
    assert (res.steps, res.kept_steps, res.trials) == (steps, kept, cfg.trials)
    assert res.value == pytest.approx(value, rel=1e-12)
    assert res.stderr == pytest.approx(stderr, rel=1e-12)


def test_modal_matches_step_loop_stiff_two_node():
    g = cl.build_path(2)
    A = _shifted(g, {0: 200.0})
    dt = _stable_dt(A)
    cfg = cl.SimConfig(dt=dt, horizon=3000 * dt, trials=6, seed=3)
    _assert_matches_loop(cl.simulate_nc(g, (0,), cfg, kappa=200.0), A, cfg)


def test_modal_matches_step_loop_cycle_eight_nf():
    g = cl.build_cycle(8)
    cfg = cl.SimConfig(dt=1e-2, horizon=20.0, trials=5, seed=5)
    _assert_matches_loop(cl.simulate_nf(g, (0, 4), cfg), _grounded(g, (0, 4)), cfg)


def test_modal_matches_step_loop_random_nc(rng):
    g = random_connected_graph(rng, 16, extra_edges=8)
    A = _shifted(g, {11: 0.5, 3: 2.0})
    dt = _stable_dt(A)
    cfg = cl.SimConfig(dt=dt, horizon=2500 * dt, trials=4, seed=21)
    _assert_matches_loop(cl.simulate_nc(g, (11, 3), cfg, kappa=[0.5, 2.0]), A, cfg)


def test_modal_matches_step_loop_single_state():
    g = cl.build_path(2)
    cfg = cl.SimConfig(dt=0.05, horizon=100.0, trials=5, seed=2)
    _assert_matches_loop(cl.simulate_nf(g, (0,), cfg), _grounded(g, (0,)), cfg)


def test_modal_matches_step_loop_across_chunks(monkeypatch):
    # chunks of 7 steps: the burn-in (25 of 100 steps) ends inside the
    # fourth chunk and every chunk boundary carries the mode states
    g = cl.build_path(4)
    cfg = cl.SimConfig(dt=0.1, horizon=10.0, trials=4, seed=2)
    monkeypatch.setattr(simulate, "_NOISE_BUDGET", 3 * 4 * 7)
    res = cl.simulate_nf(g, (0,), cfg)
    assert (res.steps, res.kept_steps) == (100, 75)
    _assert_matches_loop(res, _grounded(g, (0,)), cfg)


def test_first_trials_do_not_depend_on_trial_count(monkeypatch):
    # with a small budget each trial count also runs its own chunk size
    g = cl.build_path(4)
    monkeypatch.setattr(simulate, "_NOISE_BUDGET", 60)

    def run(m):
        return cl.simulate_nf(g, (0,), cl.SimConfig(dt=0.1, horizon=8.0,
                                                    trials=m, seed=8))

    p0 = run(1).value
    two = run(2)
    p1 = 2.0 * two.value - p0
    assert two.stderr == pytest.approx(abs(p0 - p1) / 2.0, rel=1e-12)
    three = run(3)
    p2 = 3.0 * three.value - p0 - p1
    spread = float(np.std([p0, p1, p2], ddof=1)) / math.sqrt(3)
    assert three.stderr == pytest.approx(spread, rel=1e-12)
