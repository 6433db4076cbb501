"""Davidson eigensolver (Algorithm 1 of the paper).

The implementation follows the paper's description: it is modelled on the
ITensor Davidson routine but *without* preconditioning, and with
randomization to recover from failed re-orthogonalization.  The operator is
applied implicitly through the left/right environments and the two MPO site
tensors (Fig. 1d); here it is an arbitrary callable mapping a
:class:`~repro.symmetry.BlockSparseTensor` to another in the same space.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List

import numpy as np

from ..obs import trace
from ..symmetry import BlockSparseTensor


@dataclass
class DavidsonResult:
    """Outcome of a Davidson solve."""

    eigenvalue: float
    eigenvector: BlockSparseTensor
    iterations: int
    matvecs: int
    converged: bool
    residual_norm: float


def _subspace_dtype(dtype: np.dtype) -> np.dtype:
    """Working dtype of the Davidson subspace matrix.

    The subspace problem is tiny but solved every iteration; real tensors
    get a real symmetric matrix (``inner`` returns real scalars for them)
    instead of paying complex128 algebra unconditionally.
    """
    return np.dtype(np.complex128 if np.dtype(dtype).kind == "c"
                    else np.float64)


def _finite(value, what: str):
    """``value`` itself; a non-finite one raises before it reaches ``eigh``
    (LAPACK would fail there with no hint of where the NaN came from)."""
    if not np.isfinite(value):
        raise FloatingPointError(f"Davidson: non-finite {what} ({value!r})")
    return value


def _randomize_like(x: BlockSparseTensor,
                    rng: np.random.Generator) -> BlockSparseTensor:
    """A random tensor with the same block structure (and dtype) as ``x``."""
    out = x.copy()
    for key in out.blocks:
        shape = out.blocks[key].shape
        data = rng.standard_normal(shape)
        if out.dtype.kind == "c":
            data = data + 1j * rng.standard_normal(shape)
        out.blocks[key] = data.astype(out.dtype)
    return out


def davidson(apply_h: Callable[[BlockSparseTensor], BlockSparseTensor],
             x0: BlockSparseTensor, *, max_iterations: int = 4,
             max_subspace: int = 8, tol: float = 1e-9,
             rng: np.random.Generator | None = None) -> DavidsonResult:
    """Find the smallest eigenpair of a Hermitian operator.

    Parameters
    ----------
    apply_h:
        The implicit operator ``x -> H x``.
    x0:
        Starting vector (the current two-site tensor); it is normalized
        internally.  During DMRG sweeps a small number of iterations suffices
        because the starting guess is already very good (Section II-C).
    max_iterations:
        Maximum number of expansion steps ("subspace size of 2" in the paper
        corresponds to ``max_iterations=2``).
    max_subspace:
        Maximum number of basis vectors kept before the subspace is collapsed
        onto the current Ritz vector.
    tol:
        Convergence threshold on the residual norm.

    Raises
    ------
    FloatingPointError
        When the starting norm or a subspace-matrix entry is not finite.

    Notes
    -----
    When ``apply_h`` exposes a ``backend`` with a simulated world (the
    effective Hamiltonians of the DMRG drivers do), the solver's internal
    vector algebra — orthogonalization, Ritz/residual assembly, subspace
    inner products — is charged to the cost model as axpy-like memory
    traffic (:meth:`repro.ctf.world.SimWorld.charge_davidson_algebra`),
    with the actually performed operation counts.
    """
    rng = rng if rng is not None else np.random.default_rng(7)

    def timed_apply(vec: BlockSparseTensor) -> BlockSparseTensor:
        # every operator application shows up as its own trace span
        with trace.span("davidson-matvec", "davidson"):
            return apply_h(vec)

    # the solver's internal vector algebra (orthogonalization, Ritz/residual
    # assembly, subspace inner products) is pure memory traffic on the
    # simulated machine; the actual operations are counted as they happen and
    # charged to the backend's cost model at the end (see
    # :meth:`repro.ctf.world.SimWorld.charge_davidson_algebra`)
    naxpy = 0
    ndot = 0
    nrm = _finite(x0.norm(), "starting-vector norm")
    ndot += 1
    if nrm == 0:
        raise ValueError("Davidson starting vector has zero norm")
    v = x0 / nrm
    naxpy += 1
    basis: List[BlockSparseTensor] = [v]
    h_basis: List[BlockSparseTensor] = [timed_apply(v)]
    matvecs = 1

    # subspace matrix  m_ij = <v_i | H | v_j>
    msize = max_subspace + 1
    m = np.zeros((msize, msize), dtype=_subspace_dtype(x0.dtype))
    m[0, 0] = _finite(basis[0].inner(h_basis[0]), "subspace-matrix entry")
    ndot += 1

    best_val = float(np.real(m[0, 0]))
    best_vec = basis[0]
    residual_norm = np.inf
    converged = False
    iterations = 0

    for it in range(1, max_iterations + 1):
        iterations = it
        k = len(basis)
        mk = m[:k, :k]
        with trace.span("subspace-eigh", "davidson", k=k):
            evals, evecs = np.linalg.eigh((mk + mk.conj().T) / 2.0)  # repro-lint: ok(blockops-route): the subspace matrix is not a tensor block
        lam = float(evals[0])
        s = evecs[:, 0]

        # Ritz vector and residual q = (H - lam) x
        x = basis[0] * s[0]
        q = h_basis[0] * s[0]
        naxpy += 2
        for j in range(1, k):
            x = x + basis[j] * s[j]
            q = q + h_basis[j] * s[j]
            naxpy += 2
        q = q - x * lam
        naxpy += 1
        residual_norm = q.norm()
        ndot += 1
        best_val, best_vec = lam, x
        if residual_norm < tol:
            converged = True
            break
        if it == max_iterations:
            break

        # orthogonalize the residual against the basis (modified Gram-Schmidt)
        for _attempt in range(2):
            for b in basis:
                q = q - b * b.inner(q)
            ndot += len(basis)
            naxpy += len(basis)
            qn = q.norm()
            ndot += 1
            if qn > 1e-12 * max(1.0, residual_norm):
                q = q / qn
                naxpy += 1
                break
            # failed re-orthogonalization: randomize (as in the paper)
            q = _randomize_like(x, rng)
        else:
            q = q / max(q.norm(), 1e-300)
            ndot += 1
            naxpy += 1

        if len(basis) >= max_subspace:
            # collapse the subspace onto the current Ritz vector
            basis = [x / max(x.norm(), 1e-300)]
            ndot += 1
            naxpy += 1
            h_basis = [timed_apply(basis[0])]
            matvecs += 1
            m[:, :] = 0
            m[0, 0] = _finite(basis[0].inner(h_basis[0]),
                              "subspace-matrix entry")
            ndot += 1
            continue

        basis.append(q)
        h_basis.append(timed_apply(q))
        matvecs += 1
        kk = len(basis)
        for j in range(kk):
            val = _finite(h_basis[kk - 1].inner(basis[j]),
                          "subspace-matrix entry")
            m[j, kk - 1] = np.conj(val)
            m[kk - 1, j] = val
        ndot += kk

    x = best_vec / max(best_vec.norm(), 1e-300)
    ndot += 1
    naxpy += 1
    world = getattr(getattr(apply_h, "backend", None), "world", None)
    if world is not None:
        world.charge_davidson_algebra(x0.nnz, naxpy=naxpy, ndot=ndot)
    return DavidsonResult(best_val, x, iterations, matvecs, converged,
                          float(residual_norm))
