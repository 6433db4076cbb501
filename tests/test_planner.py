"""Tests for the contraction planner/executor and the hot-path bugfix sweep.

Covers the plan cache (hit/miss accounting, DMRG integration), the
equivalence of the planned/batched GEMM path with the naive Algorithm-2
block-pair loop across random index structures, the array-built plan against
the per-pair loop it replaced (kept here as the oracle), and regression tests
for the dtype/truncation fixes that rode along with the planner PR.
"""

import gc
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from repro.backends import DirectBackend
from repro.dmrg import DMRGConfig, Sweeps, dmrg
from repro.dmrg.davidson import _randomize_like
from repro.models import heisenberg_chain_model
from repro.mps import MPS, build_mpo
from repro.perf.shapesim import ShapeTensor
from repro.symmetry import (BlockSparseTensor, Index, PlanCache, build_plan,
                            contract_planned, execute_plan, svd,
                            tensor_signature)
from repro.symmetry import engine, planner
from repro.symmetry.blockops import BlockOps, resolve_block_ops
from repro.symmetry.planner import normalize_axes


# --------------------------------------------------------------------------- #
# random contraction instances
# --------------------------------------------------------------------------- #
def _random_index(rng: np.random.Generator, max_sectors: int = 3,
                  max_dim: int = 3, nsym: int = 1, max_charge: int = 2
                  ) -> Index:
    ns = int(rng.integers(1, max_sectors + 1))
    charges = rng.integers(-max_charge, max_charge + 1, size=(ns, nsym))
    sectors = [tuple(int(q) for q in row) for row in charges]
    dims = [int(d) for d in rng.integers(1, max_dim + 1, size=ns)]
    flow = 1 if rng.random() < 0.5 else -1
    return Index(sectors, dims, flow=flow)


def _random_case(rng: np.random.Generator, n_contr: tuple = (1, 3),
                 n_free: tuple = (1, 3), drop: float = 0.0, **index_kw):
    """A random contractable (a, b, axes) triple with shuffled mode order.

    ``n_contr``/``n_free`` are half-open ranges of the number of contracted
    and free modes per operand; each stored block is then dropped with
    probability ``drop``, so some blocks lose their partners.  ``index_kw``
    goes to :func:`_random_index`.
    """
    n_c = int(rng.integers(*n_contr))
    contr = [_random_index(rng, **index_kw) for _ in range(n_c)]
    a_free = [_random_index(rng, **index_kw)
              for _ in range(int(rng.integers(*n_free)))]
    b_free = [_random_index(rng, **index_kw)
              for _ in range(int(rng.integers(*n_free)))]
    a_modes = a_free + contr
    b_modes = [ix.dual() for ix in contr] + b_free
    perm_a = list(rng.permutation(len(a_modes)))
    perm_b = list(rng.permutation(len(b_modes)))
    flux = (0,) * index_kw.get("nsym", 1)
    a = BlockSparseTensor.random([a_modes[p] for p in perm_a], flux=flux,
                                 rng=rng)
    b = BlockSparseTensor.random([b_modes[p] for p in perm_b], flux=flux,
                                 rng=rng)
    if drop:
        for t in (a, b):
            t.blocks = {k: v for k, v in t.blocks.items()
                        if rng.random() >= drop}
    axes_a = [perm_a.index(len(a_free) + i) for i in range(n_c)]
    axes_b = [perm_b.index(i) for i in range(n_c)]
    return a, b, (axes_a, axes_b)


# --------------------------------------------------------------------------- #
# the per-pair loop build_plan replaced, kept as its oracle
# --------------------------------------------------------------------------- #
def _loop_plan(a, b, axes) -> dict:
    """Build a plan the way the original Python pair loop did.

    Returns the plan's slots, pair columns, groups and aggregates in the
    layout :func:`_plan_columns` reads from a :class:`ContractionPlan`.
    """
    axes_a, axes_b = normalize_axes(a, b, axes)
    keep_a = tuple(i for i in range(a.ndim) if i not in axes_a)
    keep_b = tuple(i for i in range(b.ndim) if i not in axes_b)
    perm_a, perm_b = keep_a + axes_a, axes_b + keep_b
    b_by_contr = {}
    for key_b in sorted(b.blocks):
        b_by_contr.setdefault(tuple(key_b[ax] for ax in axes_b),
                              []).append(key_b)
    a_keys, a_rows, a_cols = [], [], []
    b_keys, b_rows, b_cols = [], [], []
    b_slot_of, out_slot_of = {}, {}
    out_keys, out_shapes, contributions = [], [], []
    pairs, flops = [], []
    total_flops = largest = 0.0
    for key_a in sorted(a.blocks):
        partners = b_by_contr.get(tuple(key_a[ax] for ax in axes_a))
        if not partners:
            continue
        keep_dims_a = tuple(a.indices[ax].sector_dim(key_a[ax])
                            for ax in keep_a)
        m = math.prod(keep_dims_a)
        k = math.prod(a.indices[ax].sector_dim(key_a[ax]) for ax in axes_a)
        sa = len(a_keys)
        a_keys.append(key_a)
        a_rows.append(m)
        a_cols.append(k)
        for key_b in partners:
            keep_dims_b = tuple(b.indices[ax].sector_dim(key_b[ax])
                                for ax in keep_b)
            n = math.prod(keep_dims_b)
            sb = b_slot_of.get(key_b)
            if sb is None:
                sb = b_slot_of[key_b] = len(b_keys)
                b_keys.append(key_b)
                b_rows.append(k)
                b_cols.append(n)
            key_c = tuple(key_a[i] for i in keep_a) + \
                tuple(key_b[i] for i in keep_b)
            so = out_slot_of.get(key_c)
            if so is None:
                so = out_slot_of[key_c] = len(out_keys)
                out_keys.append(key_c)
                out_shapes.append(keep_dims_a + keep_dims_b)
                contributions.append([])
            work = 2.0 * m * k * n
            pairs.append((sa, sb, so, m, k, n))
            flops.append(work)
            contributions[so].append((sa, sb))
            total_flops += work
            largest = max(largest, work)
    fused, batchable = [], {}
    for so, contribs in enumerate(contributions):
        if len(contribs) > 1:
            fused.append((so, tuple(sa for sa, _ in contribs),
                          tuple(sb for _, sb in contribs)))
        else:
            sa, sb = contribs[0]
            group = batchable.setdefault((a_rows[sa], a_cols[sa], b_cols[sb]),
                                         ([], [], []))
            for column, slot in zip(group, (so, sa, sb)):
                column.append(slot)
    batched = list(batchable.values())
    a_panel, a_runs = _panel_numbers([sa for _, sa, _ in fused])
    b_panel, b_runs = _panel_numbers([sb for _, _, sb in fused])
    by_a_panel = sorted(range(len(fused)), key=a_panel.__getitem__)
    return dict(
        perm_a=perm_a if perm_a != tuple(range(a.ndim)) else None,
        perm_b=perm_b if perm_b != tuple(range(b.ndim)) else None,
        a_keys=a_keys, a_rows=a_rows, a_cols=a_cols,
        b_keys=b_keys, b_rows=b_rows, b_cols=b_cols,
        out_keys=out_keys, out_dims=[list(s) for s in out_shapes],
        pairs=pairs, flops=flops,
        fused_out=[fused[g][0] for g in by_a_panel],
        fused_a_panel=[a_panel[g] for g in by_a_panel],
        fused_b_panel=[b_panel[g] for g in by_a_panel],
        a_panel_ptr=_group_ptr([(run,) for run in a_runs]),
        a_panel_slots=[slot for run in a_runs for slot in run],
        b_panel_ptr=_group_ptr([(run,) for run in b_runs]),
        b_panel_slots=[slot for run in b_runs for slot in run],
        batch_out=_flatten(batched, 0), batch_ptr=_group_ptr(batched),
        batch_a=_flatten(batched, 1), batch_b=_flatten(batched, 2),
        total_flops=total_flops,
        largest_pair_share=largest / total_flops if total_flops > 0 else 1.0,
        a_words=sum(map(math.prod, zip(a_rows, a_cols))),
        b_words=sum(map(math.prod, zip(b_rows, b_cols))),
        out_nnz=sum(math.prod(shape) for shape in out_shapes))


def _flatten(groups, column) -> list:
    """One column of a group list, concatenated in group order."""
    return [slot for group in groups for slot in group[column]]


def _panel_numbers(runs) -> tuple:
    """Number equal slot runs by first appearance: (numbers, distinct runs)."""
    number_of = {}
    numbers = [number_of.setdefault(run, len(number_of)) for run in runs]
    return numbers, list(number_of)


def _group_ptr(groups) -> list:
    """The CSR pointer of a group list (offsets of each group's pairs)."""
    ptr = [0]
    for group in groups:
        ptr.append(ptr[-1] + len(group[-1]))
    return ptr


#: the plan's slot, group and panel columns, all ``int32``
INDEX_COLUMNS = ("pair_a", "pair_b", "pair_out", "fused_out", "fused_a_panel",
                 "fused_b_panel", "a_panel_ptr", "a_panel_slots",
                 "b_panel_ptr", "b_panel_slots", "batch_out", "batch_ptr",
                 "batch_a", "batch_b")


def _plan_columns(plan) -> dict:
    """The fields of a :class:`ContractionPlan` that :func:`_loop_plan` builds."""
    assert {getattr(plan, c).dtype for c in INDEX_COLUMNS + ("out_dims",)} \
        == {np.dtype(np.int32)}
    dims = (plan.pair_m, plan.pair_k, plan.pair_n)
    assert {d.dtype for d in dims} == {np.dtype(np.int64)}
    columns = (plan.pair_a, plan.pair_b, plan.pair_out) + dims
    return dict(
        perm_a=plan.perm_a, perm_b=plan.perm_b,
        a_keys=plan.a_keys, a_rows=plan.a_rows.tolist(),
        a_cols=plan.a_cols.tolist(),
        b_keys=plan.b_keys, b_rows=plan.b_rows.tolist(),
        b_cols=plan.b_cols.tolist(),
        out_keys=plan.out_keys, out_dims=plan.out_dims.tolist(),
        pairs=list(zip(*(c.tolist() for c in columns))),
        flops=plan.pair_flops.tolist(),
        **{c: getattr(plan, c).tolist() for c in INDEX_COLUMNS[3:]},
        total_flops=plan.total_flops,
        largest_pair_share=plan.largest_pair_share, a_words=plan.a_words,
        b_words=plan.b_words, out_nnz=plan.out_nnz)


def _dense(x):
    return x.to_dense() if isinstance(x, BlockSparseTensor) else np.asarray(x)


#: two charges, like the electrons' (N, Sz); many small sectors keep
#: charge-conserving blocks common
TWO_CHARGES = dict(nsym=2, max_sectors=8, max_charge=1)
ORACLE_CASES = {
    "one-charge": dict(max_sectors=5, max_charge=1),
    "two-charges": TWO_CHARGES,
    "outer-product": dict(n_contr=(0, 1), **TWO_CHARGES),
    "full-contraction": dict(n_free=(0, 1), **TWO_CHARGES),
    "dropped-blocks": dict(drop=0.5, **TWO_CHARGES),
}


class TestPlanOracle:
    @pytest.mark.parametrize("kind", sorted(ORACLE_CASES))
    def test_plan_equals_loop_oracle(self, kind):
        """Slots, pair columns, groups and aggregates equal the loop's."""
        rng = np.random.default_rng(17)
        for _ in range(40):
            a, b, axes = _random_case(rng, **ORACLE_CASES[kind])
            plan = build_plan(a, b, axes)
            assert _plan_columns(plan) == _loop_plan(a, b, axes)
            # distinct touched blocks only: never more than the stored nnz
            assert plan.a_words <= a.nnz and plan.b_words <= b.nnz
            out = execute_plan(plan, a, b, count_flops=False)
            ref = a.contract(b, axes, count_flops=False)
            assert np.allclose(_dense(out), _dense(ref), atol=1e-12)

    def test_hash_collision_keeps_panels_apart(self):
        """Different slot runs with equal hashes still get their own panels:
        (B, 0) and (0, 1) both hash to B + 2 B**2 + 2 mod 2**64, and
        (0, 0, c) with c + 1 = -B**-3 hashes like (0, 0), whose next slot
        is c, so only the lengths tell them apart."""
        base = int(planner._RUN_HASH_BASE)
        c = (-pow(base, -3, 2 ** 64) - 1) % 2 ** 64
        runs = [(base, 0), (0, 1), (base, 0), (0, 0), (c, 5), (0, 0, c)]
        slots = np.array([s for run in runs for s in run],
                         dtype=np.uint64).view(np.int64)
        lengths = np.array([len(run) for run in runs])
        (number, ptr, _), = planner._panels(lengths, slots[:, None])
        assert number.tolist() == [0, 1, 0, 2, 3, 4]
        assert ptr.tolist() == [0, 2, 4, 6, 8, 11]

    @pytest.mark.parametrize("empty", ["a", "b"])
    def test_empty_operand(self, empty):
        a, b, axes = _random_case(np.random.default_rng(4), **TWO_CHARGES)
        if empty == "a":
            a = BlockSparseTensor(a.indices, {}, flux=a.flux)
        else:
            b = BlockSparseTensor(b.indices, {}, flux=b.flux)
        plan = build_plan(a, b, axes)
        assert _plan_columns(plan) == _loop_plan(a, b, axes)
        assert plan.npairs == 0 and plan.total_flops == 0.0
        assert execute_plan(plan, a, b).blocks == {}

    def test_sector_code_is_exact_or_raises(self):
        """63 two-sector modes fill the int64 code exactly; 64 raise."""
        two = Index([(0,), (1,)], [1, 1], flow=1)
        for n in (63, 64):
            ones = (1,) * n
            # A's second key differs from B's only in the leading sector, so
            # a wrapped code would pair it
            a = ShapeTensor([two] * n, (0,),
                            {ones: (1,) * n, (0,) + ones[1:]: (1,) * n})
            b = ShapeTensor([two.dual()] * n, (0,),
                            {ones: (1,) * n, ones[:-1] + (0,): (1,) * n})
            axes = (list(range(n)), list(range(n)))
            if n == 63:
                plan = build_plan(a, b, axes)
                assert _plan_columns(plan) == _loop_plan(a, b, axes)
                assert plan.npairs == 1
            else:
                with pytest.raises(ValueError, match="overflows int64"):
                    build_plan(a, b, axes)


def _two_charge_sweep_step():
    """A fixed two-charge contraction shaped like a two-site DMRG step: a
    ``(bond, phys, phys, bond*)`` tensor against ``(bond*, phys*, bond)``
    over the first two modes; 392 pairs into 130 outputs, 104 of them fused."""
    sectors = [(n, s) for n in range(6) for s in range(-3, 4)]
    bond = Index(sectors, [1 + (n + abs(s)) % 3 for n, s in sectors], flow=1)
    phys = Index([(0, 0), (1, 1), (1, -1), (2, 0)], [1, 1, 1, 1], flow=1)
    rng = np.random.default_rng(0)
    a = BlockSparseTensor.random([bond, phys, phys, bond.dual()],
                                 flux=(0, 0), rng=rng)
    b = BlockSparseTensor.random([bond.dual(), phys.dual(), bond],
                                 flux=(0, 0), rng=rng)
    return a, b, ([0, 1], [0, 1])


class TestPlanFootprint:
    #: bytes a cached plan of :func:`_two_charge_sweep_step` retains,
    #: measured under CPython 3.11 / numpy 2 when the plan became arrays (the
    #: tuple-based plan before it retained ~81,000)
    PLAN_BYTES = 36_200

    def test_cached_plan_stays_arrays(self):
        """The bytes tracemalloc sees a built plan keep alive stay within
        1.25x of the array layout's."""
        a, b, axes = _two_charge_sweep_step()
        build_plan(a, b, axes)  # warm caches outside the measurement
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            plan = build_plan(a, b, axes)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert retained <= 1.25 * self.PLAN_BYTES
        assert (plan.npairs, len(plan.out_keys), len(plan.fused_out)) == \
            (392, 130, 104)


class TestPlannedContraction:
    def test_matches_naive_across_random_structures(self):
        """Property test: planner == Algorithm 2 over random index structures."""
        rng = np.random.default_rng(42)
        cache = PlanCache()
        checked = 0
        for _ in range(40):
            a, b, axes = _random_case(rng)
            ref = a.contract(b, axes)
            out = contract_planned(a, b, axes, cache=cache)
            assert np.allclose(out.to_dense(), ref.to_dense(), atol=1e-12)
            # a second execution must come from the cache and agree too
            hits0 = cache.hits
            again = contract_planned(a, b, axes, cache=cache)
            assert cache.hits == hits0 + 1
            assert np.allclose(again.to_dense(), ref.to_dense(), atol=1e-12)
            checked += 1
        assert checked == 40

    def test_full_contraction_to_scalar_matches_naive(self):
        rng = np.random.default_rng(3)
        i1 = Index([(0,), (1,)], [2, 3], flow=1)
        i2 = Index([(0,), (-1,)], [2, 2], flow=-1)
        a = BlockSparseTensor.random([i1, i2], flux=(0,), rng=rng)
        b = BlockSparseTensor.random([i2.dual(), i1.dual()], flux=(0,),
                                     rng=rng)
        ref = a.contract(b, axes=([0, 1], [1, 0]))
        out = contract_planned(a, b, axes=([0, 1], [1, 0]),
                               cache=PlanCache())
        assert out == pytest.approx(ref, abs=1e-12)

    def test_complex_and_mixed_dtype(self):
        rng = np.random.default_rng(5)
        i1 = Index([(0,), (1,)], [2, 2], flow=1)
        i2 = Index([(0,), (1,)], [3, 2], flow=-1)
        a = BlockSparseTensor.random([i1, i2], flux=(0,), rng=rng,
                                     dtype=np.complex128)
        b = BlockSparseTensor.random([i2.dual(), i1.dual()], flux=(0,),
                                     rng=rng)
        out = contract_planned(a, b, axes=([1], [0]), cache=PlanCache())
        ref = a.contract(b, axes=([1], [0]))
        assert out.dtype == np.complex128
        assert np.allclose(out.to_dense(), ref.to_dense(), atol=1e-12)

    def test_plan_reused_for_equal_structure_different_values(self):
        rng = np.random.default_rng(9)
        i1 = Index([(0,), (1,)], [2, 2], flow=1)
        i2 = Index([(0,), (1,)], [2, 2], flow=-1)
        cache = PlanCache()
        a1 = BlockSparseTensor.random([i1, i2], flux=(0,), rng=rng)
        a2 = BlockSparseTensor.random([i1, i2], flux=(0,), rng=rng)
        b = BlockSparseTensor.random([i2.dual(), i1.dual()], flux=(0,),
                                     rng=rng)
        assert tensor_signature(a1) == tensor_signature(a2)
        contract_planned(a1, b, axes=([1], [0]), cache=cache)
        out = contract_planned(a2, b, axes=([1], [0]), cache=cache)
        assert (cache.hits, cache.misses) == (1, 1)
        assert np.allclose(out.to_dense(),
                           a2.contract(b, axes=([1], [0])).to_dense(),
                           atol=1e-12)

    def test_cached_plan_labels_output_with_callers_tags(self):
        """A cache hit takes the output's index tags from this call's
        operands, as the unplanned contraction does."""
        rng = np.random.default_rng(9)
        cache, axes = PlanCache(), ([1], [0])

        def operands(left, right):
            i = Index([(0,), (1,)], [2, 3], flow=1, tag=left + "i")
            j = Index([(0,), (1,)], [2, 2], flow=-1, tag="k")
            k = Index([(0,), (1,)], [3, 1], flow=-1, tag=right + "j")
            return (BlockSparseTensor.random([i, j], flux=(0,), rng=rng),
                    BlockSparseTensor.random([j.dual(), k], flux=(0,),
                                             rng=rng))

        contract_planned(*operands("x", "y"), axes, cache=cache)
        a, b = operands("p", "q")
        out = contract_planned(a, b, axes, cache=cache)
        assert (cache.hits, cache.misses) == (1, 1)
        ref = a.contract(b, axes)
        assert [ix.tag for ix in out.indices] == \
            [ix.tag for ix in ref.indices] == ["pi", "qj"]

    def test_invalid_axes_raise(self):
        rng = np.random.default_rng(1)
        i1 = Index([(0,), (1,)], [2, 2], flow=1)
        a = BlockSparseTensor.random([i1, i1.dual()], flux=(0,), rng=rng)
        with pytest.raises(ValueError):
            build_plan(a, a, axes=([1], [1]))  # equal flows cannot contract

    def test_plan_groups_cover_all_pairs(self):
        """Every fused group has >= 2 pairs; each pair is in one group."""
        rng = np.random.default_rng(11)
        for _ in range(20):
            a, b, axes = _random_case(rng, drop=0.3, **TWO_CHARGES)
            plan = build_plan(a, b, axes)
            a_ptr, b_ptr = plan.a_panel_ptr, plan.b_panel_ptr
            a_len = np.diff(a_ptr)[plan.fused_a_panel]
            assert (a_len >= 2).all()
            assert (a_len == np.diff(b_ptr)[plan.fused_b_panel]).all()
            # an A panel's GEMMs are consecutive, and panels are distinct
            assert (np.diff(plan.fused_a_panel) >= 0).all()
            for ptr, slots in ((a_ptr, plan.a_panel_slots),
                               (b_ptr, plan.b_panel_slots)):
                runs = [tuple(slots[i:j]) for i, j in zip(ptr, ptr[1:])]
                assert len(set(runs)) == len(runs)
            fused_out = np.repeat(plan.fused_out, a_len)
            grouped = list(zip(
                fused_out.tolist(),
                *(np.concatenate([slots[ptr[p]:ptr[p + 1]] for p in panel]
                                 + [np.zeros(0, np.int32)]).tolist()
                  for ptr, slots, panel in (
                      (a_ptr, plan.a_panel_slots, plan.fused_a_panel),
                      (b_ptr, plan.b_panel_slots, plan.fused_b_panel)))))
            grouped += zip(plan.batch_out.tolist(), plan.batch_a.tolist(),
                           plan.batch_b.tolist())
            pairs = zip(plan.pair_out.tolist(), plan.pair_a.tolist(),
                        plan.pair_b.tolist())
            assert sorted(grouped) == sorted(pairs)
            assert len(set(grouped)) == plan.npairs
            assert plan.out_nnz == sum(map(math.prod, plan.out_dims.tolist()))


# --------------------------------------------------------------------------- #
# the panel executor against the matricize-then-join executor it replaced
# --------------------------------------------------------------------------- #
def _matricize_and_join(plan, a, b, ops=None) -> dict:
    """The executor before panels, kept as the bit-level oracle: every
    planned block matricized once (``reshape``: a view where numpy can make
    one, else a row-major copy), each multi-pair output one
    GEMM of ``np.concatenate``d matrices in pair order, and each batch one
    ``matmul`` of ``np.stack``ed matrices.  Returns the output blocks."""
    ops = resolve_block_ops(ops)

    def matricize(t, keys, rows, cols, perm):
        return [(t.blocks[k] if perm is None
                 else np.transpose(t.blocks[k], perm)).reshape(r, c)
                for k, r, c in zip(keys, rows.tolist(), cols.tolist())]

    amats = matricize(a, plan.a_keys, plan.a_rows, plan.a_cols, plan.perm_a)
    bmats = matricize(b, plan.b_keys, plan.b_rows, plan.b_cols, plan.perm_b)
    pair_a, pair_b = plan.pair_a.tolist(), plan.pair_b.tolist()
    pairs_of = {}
    for p, so in enumerate(plan.pair_out.tolist()):
        pairs_of.setdefault(so, []).append(p)
    results = {}
    for so, ps in pairs_of.items():
        if len(ps) > 1:
            results[so] = ops.matmul(
                np.concatenate([amats[pair_a[p]] for p in ps], axis=1),
                np.concatenate([bmats[pair_b[p]] for p in ps], axis=0))
    ptr, outs = plan.batch_ptr.tolist(), plan.batch_out.tolist()
    batch_a, batch_b = plan.batch_a.tolist(), plan.batch_b.tolist()
    for i, j in zip(ptr, ptr[1:]):
        if j - i == 1:
            results[outs[i]] = ops.matmul(amats[batch_a[i]], bmats[batch_b[i]])
            continue
        prod = ops.matmul(np.stack([amats[s] for s in batch_a[i:j]]),
                          np.stack([bmats[s] for s in batch_b[i:j]]))
        results.update(zip(outs[i:j], prod))
    return {key: results[so].reshape(shape) for so, (key, shape) in
            enumerate(zip(plan.out_keys, plan.out_dims.tolist()))}


def _relayout(t: BlockSparseTensor, kind: str, rng) -> BlockSparseTensor:
    """``t`` with the same values in blocks of another memory layout."""
    def move(blk):
        if kind == "fortran":
            return np.asfortranarray(blk)
        if kind == "strided":  # every other element of a wider array
            wide = rng.standard_normal(blk.shape + (2,))
            wide[..., 0] = blk
            return wide[..., 0]
        # item 1 of a batched product, an offset slice like the engine's
        # batched outputs (multiplying by one keeps the values exact)
        flat = blk.reshape(1, -1, 1)
        prod = np.matmul(np.concatenate((flat, flat)), np.ones((1, 1)))
        return prod[1].reshape(blk.shape)
    out = BlockSparseTensor(t.indices, {k: move(v) for k, v in
                                        t.blocks.items()},
                            flux=t.flux, dtype=t.dtype, check=False)
    for k, v in t.blocks.items():
        assert np.array_equal(out.blocks[k], v)
    return out


class _RecordingOps(BlockOps):
    """Numpy ops that record every panel and batch stack they write."""

    def __init__(self):
        self.written = []

    def concat(self, mats, axis, out=None):
        self.written.append(super().concat(mats, axis, out=out))
        return self.written[-1]

    def stack(self, mats, out=None):
        self.written.append(super().stack(mats, out=out))
        return self.written[-1]


def _assert_bits_equal(got: BlockSparseTensor, want: dict):
    assert list(got.blocks) == list(want)
    for key, blk in want.items():
        assert got.blocks[key].dtype == blk.dtype
        assert got.blocks[key].shape == blk.shape
        assert got.blocks[key].tobytes() == blk.tobytes()


def _mpo_like_step(scale: int = 24):
    """A fixed permuted contraction shaped like a matvec's MPO stage: a
    ``(bond, phys, phys, bond*)`` tensor against a small ``(phys*, phys*,
    w)`` operator over both physical modes; 104 pairs into 42 fused
    outputs, A transposed to ``(0, 3, 1, 2)``."""
    sectors = [(n, s) for n in range(4) for s in range(-2, 3)]
    bond = Index(sectors, [scale * (1 + (n + abs(s)) % 3) for n, s in sectors],
                 flow=1)
    phys = Index([(0, 0), (1, 1), (1, -1), (2, 0)], [2, 2, 2, 2], flow=1)
    w = Index([(0, 0), (1, 1), (-1, -1), (1, -1), (-1, 1)], [2, 1, 1, 1, 1],
              flow=1)
    rng = np.random.default_rng(0)
    a = BlockSparseTensor.random([bond, phys, phys, bond.dual()],
                                 flux=(0, 0), rng=rng)
    b = BlockSparseTensor.random([phys.dual(), phys.dual(), w],
                                 flux=(-2, 0), rng=rng)
    return a, b, ([1, 2], [0, 1])


class TestPanelExecutor:
    LAYOUTS = ("c", "fortran", "strided", "batch-slices")

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_equals_matricize_and_join_bit_for_bit(self, layout):
        """Random two-charge contractions with permuted operands in each
        block layout give the old executor's output blocks, bit for bit."""
        rng = np.random.default_rng(23)
        ops = _RecordingOps()
        shared_a_panels = 0
        for _ in range(30):
            a, b, axes = _random_case(rng, n_free=(1, 4), **TWO_CHARGES)
            if layout != "c":
                a, b = _relayout(a, layout, rng), _relayout(b, layout, rng)
            plan = build_plan(a, b, axes)
            shared_a_panels += len(plan.fused_out) - (len(plan.a_panel_ptr) - 1)
            got = execute_plan(plan, a, b, count_flops=False, ops=ops)
            _assert_bits_equal(got, _matricize_and_join(plan, a, b))
        assert shared_a_panels > 0  # some A panels feed several GEMMs
        if layout == "fortran":
            # column-major panels or stacks were written, as numpy would
            assert any(w.ndim >= 2 and w.shape[-1] > 1 and w.shape[-2] > 1
                       and w.strides[-2] < w.strides[-1] for w in ops.written)

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_panels_take_numpys_layout(self, layout):
        """A panel or stack written from permuted blocks has the strides of
        ``np.concatenate``/``np.stack`` of the blocks' matrices."""
        rng = np.random.default_rng(5)
        ops = BlockOps()
        for _ in range(40):
            shape = tuple(int(d) for d in rng.integers(1, 4, size=3))
            perm = tuple(int(p) for p in rng.permutation(3))
            r = math.prod(shape[p] for p in perm[:2])
            c = shape[perm[2]]
            blocks = {}
            for key in range(3):
                blk = rng.standard_normal(shape)
                if layout == "fortran":
                    blk = np.asfortranarray(blk)
                elif layout == "strided":
                    blk = np.swapaxes(rng.standard_normal(shape[::-1]), 0, 2)
                elif layout == "batch-slices":
                    blk = np.matmul(rng.standard_normal((2,) + shape[:2] + (1,)),
                                    np.ones((1, shape[2])))[1]
                blocks[key] = blk
            mats = [np.transpose(blk, perm).reshape(r, c)
                    for blk in blocks.values()]
            slots, rows, cols = [0, 1, 2], [r] * 3, [c] * 3
            operands, any_cm = engine._operands(
                SimpleNamespace(blocks=blocks), slots, perm, rows, cols)
            for axis in (0, 1):
                got = engine._panel(ops, operands, rows, cols, slots, axis,
                                    np.float64, any_cm)
                want = np.concatenate(mats, axis=axis)
                assert got.strides == want.strides
                assert got.tobytes() == want.tobytes()
            got = engine._batch(ops, operands, rows, cols, slots, np.float64,
                                any_cm)
            want = np.stack(mats)
            assert got.strides == want.strides
            assert got.tobytes() == want.tobytes()

    def test_peak_stays_within_output_and_largest_panel(self):
        """Above the operands, one call holds at most its output and the
        largest panel: no matricized copy of every block (the old
        executor also held a copy of all of A: 9.0 MB against this
        bound's 1.4 MB)."""
        a, b, axes = _mpo_like_step()
        plan = build_plan(a, b, axes)
        assert plan.perm_a is not None and len(plan.fused_out) == 42
        execute_plan(plan, a, b, count_flops=False)  # warm numpy's caches
        panels = [(plan.a_rows, plan.a_cols, plan.a_panel_ptr,
                   plan.a_panel_slots),
                  (plan.b_rows, plan.b_cols, plan.b_panel_ptr,
                   plan.b_panel_slots)]
        largest = max(int((rows[slots[i:j]] * cols[slots[i:j]]).sum())
                      for rows, cols, ptr, slots in panels
                      for i, j in zip(ptr[:-1], ptr[1:])) * 8
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = execute_plan(plan, a, b, count_flops=False)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        out_bytes = sum(blk.nbytes for blk in out.blocks.values())
        assert peak <= out_bytes + largest

    def test_plan_cache_interns_block_keys(self):
        """Two plans whose operands share sectors but not dims share their
        key tuples, so a key is stored once however many plans name it."""
        cache = PlanCache()
        a, b, axes = _mpo_like_step(scale=1)
        a2, b2, _ = _mpo_like_step(scale=2)
        p1, p2 = cache.lookup(a, b, axes), cache.lookup(a2, b2, axes)
        assert cache.misses == 2 and p1 is not p2
        k1, k2 = p1.out_keys, p2.out_keys
        assert k1 == k2 and all(x is y for x, y in zip(k1, k2))
        # the outputs store their blocks under the interned tuples, so a
        # plan that reads an output shares them as its operand keys
        out = execute_plan(p2, a2, b2, count_flops=False)
        assert all(x is y for x, y in zip(out.blocks, k1))
        p3 = cache.lookup(out, out.conj(), ([0, 1, 2], [0, 1, 2]))
        assert all(any(x is y for y in k1) for x in p3.a_keys)


class TestPlanCacheInDMRG:
    def test_davidson_matvecs_hit_cached_plans(self):
        lattice, sites, opsum, cs = heisenberg_chain_model(8)
        mpo = build_mpo(opsum, sites, compress=True)
        psi0 = MPS.product_state(sites, cs)
        backend = DirectBackend()
        config = DMRGConfig(sweeps=Sweeps.fixed(24, 8, cutoff=1e-10))
        res, _ = dmrg(mpo, psi0, config, backend=backend)
        assert res.metrics["plan_cache.hits"] > 0
        assert res.plan_cache_hit_rate > 0.5
        # once the block structure converges, sweeps run fully from cache
        assert res.sweep_records[-1].metrics["plan_cache.misses"] == 0
        assert res.sweep_records[-1].plan_hit_rate == 1.0
        later = [r.metrics for r in res.sweep_records[1:]]
        hits = sum(m["plan_cache.hits"] for m in later)
        misses = sum(m["plan_cache.misses"] for m in later)
        assert hits / (hits + misses) > 0.8

    def test_planned_energy_matches_naive_path(self):
        lattice, sites, opsum, cs = heisenberg_chain_model(8)
        mpo = build_mpo(opsum, sites, compress=True)
        psi0 = MPS.product_state(sites, cs)
        config = DMRGConfig(sweeps=Sweeps.fixed(32, 6, cutoff=1e-10))
        res_naive, _ = dmrg(mpo, psi0, config,
                            backend=DirectBackend(use_planner=False))
        res_plan, _ = dmrg(mpo, psi0, config, backend=DirectBackend())
        assert res_plan.energy == pytest.approx(res_naive.energy, abs=1e-10)
        # the naive backend reports no plan statistics
        assert res_naive.metrics["plan_cache.hits"] == 0
        assert res_naive.metrics["plan_cache.misses"] == 0


# --------------------------------------------------------------------------- #
# satellite bugfix regressions
# --------------------------------------------------------------------------- #
class TestBugfixRegressions:
    def test_degenerate_svd_reports_dim1_bond(self):
        i1 = Index([(0,), (1,)], [2, 2], flow=1)
        i2 = Index([(0,), (1,)], [2, 2], flow=-1)
        empty = BlockSparseTensor([i1, i2], {}, flux=(0,))
        u, spec, vh, info = svd(empty, row_axes=[0])
        # the emitted bond really has dimension 1, and kept_dim must agree
        assert u.indices[-1].dim == 1
        assert vh.indices[0].dim == 1
        assert info.kept_dim == 1

    def test_add_casts_blocks_to_result_dtype(self):
        rng = np.random.default_rng(0)
        i1 = Index([(0,), (1,)], [2, 2], flow=1)
        i2 = Index([(0,), (1,)], [2, 2], flow=-1)
        a = BlockSparseTensor.random([i1, i2], flux=(0,), rng=rng)
        b = BlockSparseTensor.random([i1, i2], flux=(0,), rng=rng,
                                     dtype=np.complex128)
        out = a + b
        assert out.dtype == np.complex128
        assert all(blk.dtype == np.complex128 for blk in out.blocks.values())
        # blocks present only in `a` must be cast as well
        sparse_b = BlockSparseTensor([i1, i2],
                                     {next(iter(b.blocks)):
                                      next(iter(b.blocks.values()))},
                                     flux=(0,), dtype=np.complex128)
        out2 = a + sparse_b
        assert all(blk.dtype == np.complex128
                   for blk in out2.blocks.values())

    def test_mul_keeps_dtype_attribute_consistent_with_blocks(self):
        rng = np.random.default_rng(0)
        i1 = Index([(0,), (1,)], [2, 2], flow=1)
        i2 = Index([(0,), (1,)], [2, 2], flow=-1)
        a = BlockSparseTensor.random([i1, i2], flux=(0,), rng=rng,
                                     dtype=np.complex64)
        out = a * 2.0
        assert all(blk.dtype == out.dtype for blk in out.blocks.values())
        outc = a * (1.0 + 2.0j)
        assert outc.dtype.kind == "c"
        assert all(blk.dtype == outc.dtype for blk in outc.blocks.values())
        # the dtype must not depend on whether blocks happen to be stored
        empty = BlockSparseTensor.zeros([i1, i2], flux=(0,),
                                        dtype=np.complex64)
        assert (empty * 2.0).dtype == out.dtype

    def test_plan_cache_none_still_contracts_on_all_backends(self):
        """The naive oracle (the one backend without a plan cache) contracts
        through Algorithm 2 and agrees with the planned path."""
        rng = np.random.default_rng(2)
        i1 = Index([(0,), (1,)], [2, 2], flow=1)
        i2 = Index([(0,), (1,)], [2, 2], flow=-1)
        a = BlockSparseTensor.random([i1, i2], flux=(0,), rng=rng)
        b = BlockSparseTensor.random([i2.dual(), i1.dual()], flux=(0,),
                                     rng=rng)
        naive = DirectBackend(use_planner=False)
        assert naive.plan_cache is None
        out = naive.contract(a, b, axes=([1], [0]))
        ref = DirectBackend().contract(a, b, axes=([1], [0]))
        assert np.allclose(out.to_dense(), ref.to_dense(), atol=1e-12)

    def test_scalar_contract_with_no_pairs_keeps_result_dtype(self):
        ii = Index([(0,), (1,)], [1, 1], flow=1)
        a = BlockSparseTensor([ii], {(0,): np.ones(1, dtype=np.complex128)},
                              flux=(0,), dtype=np.complex128)
        b = BlockSparseTensor([ii.dual()],
                              {(1,): np.ones(1, dtype=np.complex128)},
                              flux=(-1,), dtype=np.complex128)
        out = a.contract(b, axes=([0], [0]))
        assert np.asarray(out).dtype == np.complex128
        assert out == 0
        planned = contract_planned(a, b, axes=([0], [0]), cache=PlanCache())
        assert np.asarray(planned).dtype == np.complex128
        assert planned == 0

    @pytest.mark.parametrize("dtype", [np.float32, np.float64,
                                       np.complex64, np.complex128])
    def test_randomize_like_respects_dtype(self, dtype):
        rng = np.random.default_rng(0)
        i1 = Index([(0,), (1,)], [2, 2], flow=1)
        i2 = Index([(0,), (1,)], [2, 2], flow=-1)
        x = BlockSparseTensor.random([i1, i2], flux=(0,), rng=rng,
                                     dtype=dtype)
        out = _randomize_like(x, rng)
        assert out.dtype == np.dtype(dtype)
        assert all(blk.dtype == np.dtype(dtype)
                   for blk in out.blocks.values())
        assert out.norm() > 0
