"""Sweep-persistent tensor layouts: redistribute only on real mapping changes.

Cyclops assigns every distributed tensor a mapping onto the processor grid and
pays a redistribution ("CTF transposition" in the paper's Fig. 7) only when
the mapping *preferred by the next contraction* differs from the mapping the
tensor is currently stored in.  DMRG makes that distinction matter: the left
and right environments, the MPO site tensors and the Davidson wavefunction are
contracted again and again with the same plan — across Davidson iterations
and across consecutive sweep steps — so their layouts persist and most
contractions pay no remapping at all.

Prior to this module the cost model priced every contraction in isolation,
charging both operands' remapping every time, which inflates the modelled
transposition share well above the paper's Fig. 7 proportions.

Two pieces close the gap:

* :class:`TensorLayout` — the durable identity of a mapping decision (the
  algorithm family, processor grid and replication factor of a
  :class:`~repro.ctf.mapping.MappingDecision`), comparable across
  contractions.
* :class:`LayoutTracker` — remembers the current :class:`TensorLayout` of
  every named operand and answers the only question the cost model needs:
  *does this operand have to move for its next contraction?*  First touch of
  an operand always moves (the tensor starts unmapped); an operand whose
  layout already matches the next contraction's preferred mapping moves for
  free; a genuine mapping change charges a redistribution.

The tracker is deliberately key-based rather than object-based: DMRG
repeatedly *rebuilds* tensors that play the same role (the Davidson vector of
a site, a freshly extended environment), and the role — not the Python object
— is what owns a distributed layout.  Canonical key builders for the DMRG
roles live at the bottom of this module so the sweep driver, the environment
cache and the shape-level simulation agree on names.

:meth:`repro.ctf.world.SimWorld.charge_layout_transition` is the charging
entry point built on top of this module.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

from .mapping import MappingDecision


@dataclass(frozen=True)
class TensorLayout:
    """The durable identity of a distributed tensor's current mapping.

    Two contractions prefer "the same layout" for an operand when their
    chosen :class:`~repro.ctf.mapping.MappingDecision` agrees on the
    algorithm family, the processor grid and the replication factor — the
    transient per-decision quantities (modelled seconds, words per rank) do
    not affect where the tensor's elements live and are deliberately not part
    of the identity.

    Attributes
    ----------
    algorithm:
        Mapping family (``"summa-2d"``, ``"summa-25d"`` or ``"summa-3d"``).
    grid:
        Processor grid the tensor is laid out on.
    replication:
        Replication factor ("c" of the 2.5D algorithms, 1 for 2D).
    """

    algorithm: str
    grid: Tuple[int, ...]
    replication: int

    @classmethod
    def from_decision(cls, decision: MappingDecision) -> "TensorLayout":
        """The layout a :class:`~repro.ctf.mapping.MappingDecision` implies."""
        return cls(decision.algorithm, tuple(decision.grid),
                   int(decision.replication))


@dataclass
class LayoutTracker:
    """Remembers each named operand's current layout across contractions.

    The tracker answers :meth:`observe` — "operand ``key`` is about to be
    contracted under ``layout``; does it move?" — and keeps the Fig. 7
    bookkeeping: how many observations were first touches (always charged),
    genuine layout transitions (charged), or reuses of an unchanged layout
    (free).  :meth:`record` installs a layout without charging semantics
    (a tensor *born* from a contraction already lives in that contraction's
    mapping), and :meth:`invalidate` forgets operands whose backing tensor
    was rewritten outside the cost model's view (e.g. by an SVD), so their
    next touch charges again.
    """

    #: current layout per operand key
    layouts: Dict[str, TensorLayout] = field(default_factory=dict)
    #: observations of operands never seen before (charged)
    first_touches: int = 0
    #: observations whose preferred mapping differed from the layout (charged)
    transitions: int = 0
    #: observations whose layout already matched (free)
    reuses: int = 0
    #: layouts installed for freshly produced tensors (never charged)
    births: int = 0

    def observe(self, key: str, layout: TensorLayout) -> bool:
        """Note that ``key`` is contracted under ``layout``; ``True`` if it moves.

        A first touch or a layout change installs the new layout and returns
        ``True`` (the caller charges a redistribution); a matching layout
        returns ``False`` (the operand is reused in place, for free).
        """
        current = self.layouts.get(key)
        if current is None:
            self.first_touches += 1
        elif current == layout:
            self.reuses += 1
            return False
        else:
            self.transitions += 1
        self.layouts[key] = layout
        return True

    def record(self, key: str, layout: TensorLayout) -> None:
        """Install ``layout`` for a freshly produced tensor (free).

        The output of a contraction is created directly in the contraction's
        mapping, so recording its birth layout never charges; it only lets a
        later contraction that prefers the same mapping reuse it for free.
        """
        self.births += 1
        self.layouts[key] = layout

    def invalidate(self, *keys: str) -> None:
        """Forget the layout of operands rewritten outside the cost model."""
        for key in keys:
            self.layouts.pop(key, None)

    @property
    def charged_moves(self) -> int:
        """Observations that charged a redistribution (first + transitions)."""
        return self.first_touches + self.transitions

    @property
    def observations(self) -> int:
        """Total :meth:`observe` calls (charged or free)."""
        return self.first_touches + self.transitions + self.reuses

    def snapshot(self) -> Dict[str, int]:
        """Plain-dict counters (for reports and benchmark tables)."""
        return {
            "tracked_operands": len(self.layouts),
            "first_touches": self.first_touches,
            "transitions": self.transitions,
            "reuses": self.reuses,
            "births": self.births,
            "charged_moves": self.charged_moves,
            "observations": self.observations,
        }


# --------------------------------------------------------------------------- #
# canonical operand keys for the DMRG roles
# --------------------------------------------------------------------------- #
def left_env_key(j: int) -> str:
    """Key of the left environment covering sites strictly left of ``j``."""
    return f"env:L{j}"


def right_env_key(j: int) -> str:
    """Key of the right environment covering sites strictly right of ``j``."""
    return f"env:R{j}"


def mpo_key(j: int) -> str:
    """Key of the MPO tensor at site ``j``."""
    return f"mpo:{j}"


def site_key(j: int) -> str:
    """Key of the MPS site tensor at site ``j``."""
    return f"mps:{j}"


def davidson_key(j: int) -> str:
    """Key of the two-site Davidson wavefunction optimized at bond ``j``."""
    return f"dav:{j}"


def heff_operand_keys(j: int, nsites: int = 2) -> Tuple[str, ...]:
    """Operand keys of the ``nsites``-site effective Hamiltonian at ``j``.

    Ordered as the projected Hamiltonian consumes them: left environment,
    the MPO site tensors, right environment, wavefunction.  The two-site
    Davidson wavefunction has its own key; the one-site wavefunction plays
    the role of (and overwrites) the MPS site tensor itself, so it shares
    :func:`site_key`.
    """
    wavefunction = davidson_key(j) if nsites > 1 else site_key(j)
    return (left_env_key(j), *(mpo_key(j + i) for i in range(nsites)),
            right_env_key(j + nsites - 1), wavefunction)
