"""The block stepper against a per-path loop and against pinned records.

`per_path_loop` integrates one path at a time with one fresh generator per
(path, step), as the integrator did before paths were stepped in blocks.
It calls the same drift kernel as the stepper, at one path per call, so it
shows that every record equals the one-path computation bit for bit, for
any block size and composition.  It cannot see a change in the kernel's
own arithmetic: `PINNED` holds, per case, a digest of the trajectory alone
and one of the whole record, and `test_records_match_pinned` checks the
current records against both.  Each case also keeps the trajectory digest
from before the drift moved from np.fft to band DFT matrices (from the
per-path integrator that preceded the block stepper, or for later cases
from the block stepper), and the record digest of that trajectory with
the current norm column; the records give them with the drift swapped for the
full-grid FFT oracle of `tests/test_constitutive.py`.
"""

import dataclasses
import hashlib
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from splf import constitutive as co
from splf import integrator as it
from splf import noise, rng
from splf import spectral as sp

from test_constitutive import drift_full_grid

ROOT = Path(__file__).resolve().parent.parent


def per_path_loop(c, path_index, x0):
    gamma = noise.gamma_vector(c.gamma, c.n, c.d)
    lam = sp.basis(c.d, c.n).lam_coord
    dt = c.dt_eff
    x = x0.copy()
    rows, int_diss, int_gamma, diverged_step = [], 0.0, 0.0, None

    def record(t):
        norm_p1 = it._norm_p1_p(x[None], c)[0]     # the quadrature of one row
        rows.append((t, x.copy(), float(x @ x), norm_p1, int_diss, int_gamma))

    for k in range(c.n_steps):
        if k % c.record_every == 0:
            record(k * dt)
        b, diss = co.drift_and_dissipation(x, c.d, c.n, c.params)
        if not np.all(np.isfinite(b)):
            diverged_step = k
            break
        int_diss += dt * diss
        int_gamma += dt * float(gamma @ (x * x))
        g = rng.stream(c.seed, path_index, k, rng.PURPOSE_INCREMENT)
        dW = g.standard_normal(gamma.size) * np.sqrt(gamma * dt)
        if c.stepper == "euler_maruyama":
            x = x + dt * b + dW
        elif c.stepper == "tamed":
            x = x + dt * b / (1.0 + dt * np.linalg.norm(b)) + dW
        else:
            x = (x + dt * (b + c.nu * lam * x) + dW) / (1.0 + dt * c.nu * lam)
        nrm = float(np.linalg.norm(x))
        if not np.isfinite(nrm) or nrm > c.norm_ceiling:
            diverged_step = k + 1
            break
    else:
        record(c.n_steps * dt)
    return rows, diverged_step


def assert_matches(rec, oracle):
    rows, diverged_step = oracle
    fields = (rec.times, rec.coords, rec.norm_l2_sq, rec.norm_p1_p,
              rec.int_diss, rec.int_gamma)
    for got, want in zip(fields, zip(*rows)):
        assert np.array_equal(got, np.array(want))
    assert rec.diverged_step == diverged_step
    assert rec.diverged == (diverged_step is not None)


def config(d, stepper, **kw):
    defaults = dict(
        d=d, p=2.5, nu=0.5, n=2 if d == 2 else 1, dt=2e-3, T=1e-2,
        n_paths=64, seed=20240611, init=it.GaussianInit(sigma=1.5, decay=1.0),
        gamma=noise.PowerLawSpectrum(c=0.5, s=3.0), stepper=stepper,
        record_every=2)
    defaults.update(kw)
    return it.SimConfig(**defaults)


def assert_blocks_match_oracle(c, sizes=(1, 7, 64)):
    oracle = [per_path_loop(c, i, it.initial_coords(c, i)) for i in range(c.n_paths)]
    for size in sizes:
        records = run_in_blocks(c, size)
        assert [r.path_index for r in records] == list(range(c.n_paths))
        for rec, want in zip(records, oracle):
            assert_matches(rec, want)
    return records


def with_norm(rec, c):
    """The record with the ||X||_{p,1}^p column that the ensemble route
    fills in and the stepper and the pair route leave out."""
    assert rec.norm_p1_p is None
    return dataclasses.replace(rec, norm_p1_p=it._norm_p1_p(rec.coords, c))


def run_in_blocks(c, size):
    stepper = it._BlockStepper(c)
    records = []
    for start in range(0, c.n_paths, size):
        chunk = list(range(start, min(start + size, c.n_paths)))
        records += stepper.run(chunk, np.array([it.initial_coords(c, i) for i in chunk]))
    return [with_norm(rec, c) for rec in records]


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("stepper", it.STEPPERS)
def test_blocks_match_per_path_loop(d, stepper):
    # at d=3 only every fifth row is recorded: the norm quadrature of each
    # row would dominate the test
    c = config(d, stepper, record_every=2 if d == 2 else 5)
    assert_blocks_match_oracle(c)


def test_d3_blocks_match_per_path_loop():
    # the simulate-d3 model, d=3, n=2, p=1.9, tamed, in blocks of one, of
    # the rule's size and of 7; 9 paths leave a short last block, and the
    # last recorded row comes one step after the one before it
    c = config(3, "tamed", n=2, p=1.9, T=1e-2, n_paths=9, record_every=2)
    size = it.block_size(c.d, c.n)
    assert 1 < size < 7
    assert_blocks_match_oracle(c, sizes=(1, size, 7))


@pytest.mark.parametrize("ceiling", [
    40.0,
    # with no ceiling the paths overflow in the drift, the norm and vecdot
    pytest.param(float("inf"),
                 marks=pytest.mark.filterwarnings("ignore::RuntimeWarning"))])
def test_diverged_rows_leave_the_block(ceiling):
    # explicit Euler on the stiff p=4 stress: paths with more energy blow up
    # sooner, so they leave the block at different steps, by the norm
    # ceiling or (with no ceiling) mostly by a non-finite drift
    c = config(2, "euler_maruyama", p=4.0, nu=1.0, T=0.1, n_paths=16,
               record_every=1, norm_ceiling=ceiling,
               init=it.GaussianInit(sigma=0.4, decay=1.0))
    records = assert_blocks_match_oracle(c)
    steps = {r.diverged_step for r in records if r.diverged}
    assert len(steps) > 1 and not all(r.diverged for r in records)


def test_uneven_rows_fill_the_block_buffer():
    # 50 steps recorded every third: the last row comes two steps after the
    # one before it.  All 16 paths share one block; the norm ceiling fails a
    # row on the state after step k, so it leaves the block at step
    # k = diverged_step - 1, some just after a recorded row (k = 3) and some
    # between two (k = 2, 4, 5): their slots of the buffer end at different
    # rows
    c = dataclasses.replace(diverging_config(), record_every=3)
    assert c.n_steps % c.record_every != 0
    records = assert_blocks_match_oracle(c)
    left = [r.diverged_step - 1 for r in records if r.diverged]
    assert {k % c.record_every == 0 for k in left} == {True, False}
    assert len(left) < len(records)


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("stepper", it.STEPPERS)
def test_pairs_share_one_stream(d, stepper):
    c = config(d, stepper, n_paths=1)
    x0 = it.initial_coords(c, 3)
    y0 = x0.copy()
    y0[0] += 1e-3
    rec_a, rec_b = it.simulate_paired(c, [3], [x0], [y0])
    assert_matches(with_norm(rec_a, c), per_path_loop(c, 3, x0))
    assert_matches(with_norm(rec_b, c), per_path_loop(c, 3, y0))


@pytest.mark.parametrize("d", [2, 3])
def test_stepper_draws_sample_increment(d, monkeypatch):
    # acceptance criterion 8 tests the law of noise.sample_increment: the
    # stepper's own draw equals it bit for bit, and the two rows of each
    # pair get one draw, that of the pair's path label
    c = config(d, "tamed", n_paths=1)
    gamma = noise.gamma_vector(c.gamma, c.n, c.d)

    def law(q, k):
        return noise.sample_increment(c.gamma, c.n, c.d, c.dt_eff,
                                      rng.stream(c.seed, q, k), gamma=gamma)

    stepper = it._BlockStepper(c)
    for q, k in [(0, 0), (3, 4), (2 ** 40, 1), (3, 0)]:
        assert np.array_equal(stepper.increment(q, k), law(q, k))
    seen, advance = [], it._advance

    def spy(x, dt, dW, *args):
        seen.append(dW.copy())
        return advance(x, dt, dW, *args)

    monkeypatch.setattr(it, "_advance", spy)
    x0 = np.array([it.initial_coords(c, i) for i in (3, 5)])
    it.simulate_paired(c, [3, 5], x0, x0 + 1e-3)
    assert len(seen) == c.n_steps
    for k, dW in enumerate(seen):
        assert np.array_equal(dW, [law(3, k), law(3, k), law(5, k), law(5, k)])


def assert_same_record(got, want):
    assert (got.path_index, got.diverged, got.diverged_step) == (
        want.path_index, want.diverged, want.diverged_step)
    assert got.norm_p1_p is None and want.norm_p1_p is None
    for name in ("times", "coords", "norm_l2_sq", "int_diss", "int_gamma"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


@pytest.mark.parametrize("case", ["tamed", "diverging"])
def test_pair_records_do_not_depend_on_their_block(case):
    # 19 pairs fill one block of 16 and start a second; on the diverging
    # input, pairs that diverge at different steps share a block with
    # pairs that do not
    c = config(2, "tamed") if case == "tamed" else diverging_config()
    n = 19
    assert it.block_size(c.d, c.n) // 2 == 16
    x0 = np.array([it.initial_coords(c, i) for i in range(n)])
    y0 = x0.copy()
    y0[:, 0] += 1e-3
    batched = it.simulate_paired(c, range(n), x0, y0)
    first16 = it.simulate_paired(c, range(16), x0[:16], y0[:16])
    assert len(batched) == 2 * n and len(first16) == 32
    assert [r.path_index for r in batched] == [i for i in range(n) for _ in "ab"]
    for i in range(n):
        alone = it.simulate_paired(c, [i], x0[i:i + 1], y0[i:i + 1])
        assert len(alone) == 2
        for member in range(2):
            assert_same_record(batched[2 * i + member], alone[member])
            if i < 16:
                assert_same_record(first16[2 * i + member], alone[member])
    if case == "diverging":
        in_block = [r.diverged_step for r in batched[:32]]
        assert None in in_block and len(set(in_block) - {None}) > 1


def test_ensemble_and_single_paths_match_oracle():
    c = config(2, "tamed", n_paths=40)
    for rec in it.simulate_ensemble(c) + [it.simulate(c, 39)]:
        i = rec.path_index
        assert_matches(rec, per_path_loop(c, i, it.initial_coords(c, i)))


def test_block_size_rule():
    # (d + d^2) M^d synthesised grid values per path against the drift
    # budget, at most MAX_BLOCK paths
    assert it.MAX_BLOCK == 32
    assert it.block_size(2, 2) == 32
    assert it.block_size(3, 2) == 4
    for d, n in [(2, 1), (2, 2), (2, 5), (2, 8), (3, 1), (3, 2), (3, 4)]:
        size = it.block_size(d, n)
        per_path = (d + d * d) * sp.pairing_grid_size(n) ** d
        assert 1 <= size <= it.MAX_BLOCK and size & (size - 1) == 0
        assert size == 1 or size * per_path <= it.DRIFT_VALUES
        assert size == it.MAX_BLOCK or it.DRIFT_VALUES < 2 * size * per_path


# bytes per path: 200 KiB at d=3 (185 KiB measured), and 0.67 MiB over a
# d=2 block of 32
@pytest.mark.parametrize("d,limit", [(3, 200 * 1024), (2, 0.67 * 2 ** 20 / 32)])
def test_drift_memory_per_path(d, limit):
    # tracemalloc peak of one drift call in a block of the rule's size at
    # n=2: the pointwise stage works in place, so few block-sized arrays
    # are alive at once (410 kB per path at d=3 when every one of them
    # lives to the end of the call; 271 KiB before the drift carried only
    # the d(d+1)/2 strain components)
    n = 2
    P = it.block_size(d, n)
    x = np.random.default_rng(d).standard_normal((P, sp.basis(d, n).K))
    params = co.FluidParams(p=1.9, nu=1.0)
    co.drift_and_dissipation(x, d, n, params)     # builds the cached grid tables
    tracemalloc.start()
    try:
        co.drift_and_dissipation(x, d, n, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= limit * P


def test_streams_rewind_to_any_label():
    labels = [(seed, path, step, purpose)
              for seed in (0, 7, 2 ** 63, 2 ** 64 - 1)
              for path in (0, 5, 2 ** 40, 2 ** 64 - 1)
              for step in (0, 1, 999, 2 ** 64 - 1)
              for purpose in (rng.PURPOSE_INCREMENT, rng.PURPOSE_INIT)]
    order = np.random.default_rng(0).permutation(len(labels))
    streams = {}
    for i in order:
        seed, path, step, purpose = labels[i]
        s = streams.setdefault((seed, purpose), rng.Streams(seed, purpose))
        got = s.at(path, step)
        want = rng.stream(seed, path, step, purpose)
        assert np.array_equal(got.standard_normal(24), want.standard_normal(24))
        assert np.array_equal(got.standard_normal(5), want.standard_normal(5))


def test_labels_at_or_above_2_64_rejected():
    for labels in [(2 ** 64, 0, 0), (0, 2 ** 64, 0), (0, 0, 2 ** 64)]:
        with pytest.raises(ValueError, match="2\\*\\*64"):
            rng.stream(*labels)
    with pytest.raises(ValueError, match="2\\*\\*64"):
        rng.Streams(2 ** 64)
    with pytest.raises(ValueError, match="2\\*\\*64"):
        rng.Streams(1).at(2 ** 64, 0)


def record_digest(records, norm=True):
    """sha256 of every record field; with norm=False, of every field but
    the ||X||_{p,1}^p quadrature, that is of the trajectory alone."""
    h = hashlib.sha256()
    for r in records:
        h.update(repr((r.path_index, r.diverged_step)).encode())
        for a in (r.times, r.coords, r.norm_l2_sq,
                  *((r.norm_p1_p,) if norm else ()), r.int_diss, r.int_gamma):
            h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()


def diverging_config():
    return config(2, "euler_maruyama", p=4.0, nu=1.0, T=0.1, n_paths=16,
                  record_every=1, norm_ceiling=40.0,
                  init=it.GaussianInit(sigma=0.4, decay=1.0))


def paired_records():
    c = config(2, "tamed", n_paths=1)
    x0 = it.initial_coords(c, 3)
    y0 = x0.copy()
    y0[0] += 1e-3
    return [with_norm(rec, c) for rec in it.simulate_paired(c, [3], [x0], [y0])]


# (run, record digest, trajectory digest, and the same two under the
# full-grid oracle drift), numpy 2.4 with scipy-openblas 0.3.31 on x86-64;
# 40 paths at d=2 span one full and one partial block.  The trajectory
# digest (`record_digest(..., norm=False)`) leaves out the ||X||_{p,1}^p
# column, whose digests come from the separable band synthesis of
# `lp_means` on the grid of `norm_grid_size(n, d, p)`, through
# `grid_lp_means`.  The first pair is taken from the band-matrix drift; the
# oracle trajectory digest is the one pinned before the drift left np.fft,
# and `test_rebaseline_is_confined_to_the_drift_kernel` checks it with the
# drift swapped for `drift_full_grid`.  Every record digest but p2's was
# re-pinned, oracle included, when the quadrature grid moved from a floor
# of 32 points per axis to the error-budgeted rule; no trajectory digest
# moved.  The first pair was re-pinned, by rounding alone, when the drift
# moved to the band pair `synthesize`/`analyse` of `lp_means`: coords and
# int_diss moved by at most 3.2e-16 relative, 2.1e-14 on the diverging
# case, and no diverged step moved; the oracle pair did not move.  p2's
# two record digests were re-pinned, by rounding alone, when p = 2 left its
# exact weighted sum for the same quadrature as every other p, on the
# pairing grid where the rule is exact: the norm column moved by at most
# 4.8e-16 relative, and no trajectory digest moved.  The first pair of the
# two d=3 cases was re-pinned again, by rounding alone, when the d=3 drift
# moved to divergence form on the symmetric strain,
# b = P_n div(tau - v (x) v) with one table matmul on each side of the
# band: coords moved by at most 1.5e-16 relative, int_diss by 2.0e-16 and
# the norm column by 8.3e-17; the d=2 cases, whose drift keeps the
# gradient form, and the oracle pairs did not move.
PINNED = {
    "euler_maruyama": (
        lambda: it.simulate_ensemble(config(2, "euler_maruyama", n_paths=40)),
        "5dbeefcd75f2a2842d6c1eeef84e6c6bdce6d3b83b34945e6c82e59a490eebee",
        "10ac7e1e30feccc45a760d707efa29e658182eb9d766af889bf511061d213040",
        "10513a46eb52ba024da5d4a624d0b86418834a5b0d265e174c8c43173838c8fd",
        "072c18f66908f31e33449a6b2ba72d777a87655aee87af92967c84004c71505e"),
    "tamed": (
        lambda: it.simulate_ensemble(config(2, "tamed", n_paths=40)),
        "dcbbf5be712908903e1eb646ff3a37859fcba0de8e48bed2524e647e9afea068",
        "fab0239f80d3d332b7c16a12fa8d6a8dd1aeb1dc70e51708e61719589e5febf2",
        "46cfeec0a05e904e0f354b8ce9ee99ad93c55ca3492b974cbd0bcb41122bc756",
        "17c8003f1cb0b5318616d9105a03099aa61e24e11a4367134591e09f92447dad"),
    "semi_implicit": (
        lambda: it.simulate_ensemble(config(2, "semi_implicit", n_paths=40)),
        "634a6a7bba65ca789006736390b86b08b7befdbe1ff3e5253d48ed6645e4aed8",
        "7c21cbce45e583e4415c7c05e7e62217cdd610107518e8a04fddbfe080a4a39b",
        "e70057cd2225cbb192c1692aa722d3ae5efc2451ee2ea87e27afe57264186f19",
        "441b93e68fcb75f47abf9ce62dd1fa54f0a882862f1dead2edad84726af12eea"),
    "d3": (
        lambda: it.simulate_ensemble(
            config(3, "tamed", n_paths=3, record_every=5)),
        "6fe37e03a6b293a937f0ecea0e5d4ebd27915b8056c855fc2fa7dd9a57ae83cd",
        "4746181c71ff539f7b32e024cddbaf03fd9f776474600ef3705dc92114e34dc2",
        "105d88e455c5a35fcf4ba2e959aadc84d3a79c91ea6ed80fe955c493cf9624b6",
        "d5cfeeba88e57b6d236044c4f10b72634aa32f3ac58f2684d153e5e3e1062aaf"),
    # the shape of the simulate-d3 benchmark (n=2, p=1.9)
    "d3-n2": (
        lambda: it.simulate_ensemble(
            config(3, "tamed", n=2, p=1.9, n_paths=2, record_every=1)),
        "4ec21a2f4042cdbe6c53b01cde05211e1db55e5492950fdd1a4f35c195a89289",
        "29b958762eefd359b72e6810dd7e85150d527f0840232f1b8fcaf315651884dd",
        "2465792b6b236c02f38f1f068c483226ba2026428e4f8bc8f6f313af2a66094e",
        "bee4d91fc0f0904260c0966a5226741ff660d9d72cc2967b2467143af5334127"),
    "diverging": (
        lambda: it.simulate_ensemble(diverging_config()),
        "3d8d065b73cd50857f44488ed9c9bf41d462c876ede0ba634e12218595beae68",
        "429e7174d6cd1cc602e855ff0be3881d02c1946792b5c04472ef906945af230b",
        "46eeee2d3900414e5f6afa97840a7e49e1baf4b1ffeba34e9053d3279f9fd9fc",
        "4057160184e5b8dbdbc9e6971854ee308a9ded1ab84675e8ef52cff13f65a5f8"),
    "p2": (
        lambda: it.simulate_ensemble(config(2, "semi_implicit", p=2.0, n_paths=40)),
        "22e3d40a9381bba332636831767689aa4d9963dfcc500f1a4b80c57719dddc72",
        "d06b99e81e4ac83d36386d62790be6e2bc8a70484f484dc251b3342a64024d12",
        "fa806bf23db3e329a086b73fac29099f37911642c1068c05d7ec1cf52068b095",
        "dadce53abfe961a47762114d1bae6067f8941f51ea9ea021444cc90bac6d1766"),
    "paired": (
        paired_records,
        "f88e19878145e45761435057db7e2b7e4f7b16207e76031e83211d1f1f2ae262",
        "a3a0044daf43e2182cfc1aa9794f2eb943a4806acbcd4421e3d34dd3c3eaed0a",
        "2664875f5debc1f6d0467debc6523fc99a1f1fbb9e5bcc6c57d9fd494c4d0884",
        "d8ab1845e555337529a5e11e35399d202f23e0b1290dd6ba1e94c4103eb2bdfa"),
}


@pytest.mark.parametrize("case", sorted(PINNED))
def test_records_match_pinned(case, monkeypatch):
    monkeypatch.setenv("SPLF_THREADS", "1")
    run, digest, trajectory, _, _ = PINNED[case]
    records = run()
    assert record_digest(records, norm=False) == trajectory
    assert record_digest(records) == digest


def full_grid_drift(x, d, n, params):
    """drift_and_dissipation through the full-grid FFT oracle."""
    gm = sp.grid_map(d, n, sp.pairing_grid_size(n))
    b, diss = drift_full_grid(x.reshape(-1, x.shape[-1]), gm, params)
    return (b[0], float(diss[0])) if x.ndim == 1 else (b, diss)


@pytest.mark.parametrize("case", sorted(PINNED))
def test_rebaseline_is_confined_to_the_drift_kernel(case, monkeypatch):
    # with the drift swapped for the full-grid oracle, which is byte-equal to
    # the kernel that preceded the band matrices, the records keep the
    # trajectory digests pinned before: the stepper and the RNG did not
    # move; the kernel's own records differ from them by rounding alone
    monkeypatch.setenv("SPLF_THREADS", "1")
    run, _, _, digest, trajectory = PINNED[case]
    records = run()
    monkeypatch.setattr(it, "drift_and_dissipation", full_grid_drift)
    oracle = run()
    assert record_digest(oracle, norm=False) == trajectory
    assert record_digest(oracle) == digest
    assert len(records) == len(oracle)
    for got, want in zip(records, oracle):
        assert (got.path_index, got.diverged_step) == (want.path_index, want.diverged_step)
        assert np.array_equal(got.times, want.times)
        for name in ("coords", "int_diss"):
            a, b = getattr(got, name), getattr(want, name)
            assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max(), name


@pytest.mark.parametrize("case", ["tamed", "d3-n2", "paired"])
def test_records_do_not_depend_on_blas_threads(case):
    # the drift's arithmetic goes through BLAS matmul; each gemm acts on one
    # row's slice, so the thread count OpenBLAS may split it over must not
    # show in a record
    code = ("import test_block_stepper as t; "
            f"print(t.record_digest(t.PINNED[{case!r}][0]()))")
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, SPLF_THREADS="1", OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")]))
        result = subprocess.run([sys.executable, "-c", code], env=env,
                                capture_output=True, text=True, timeout=300)
        assert result.returncode == 0, result.stderr
        digests.append(result.stdout.strip())
    assert digests == [PINNED[case][1]] * 2
