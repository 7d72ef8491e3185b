"""Cech cohomology of a support model over the cover's nerve.

Coefficients live in the presheaf of free abelian groups generated by the
supported sections, so differences of restricted sections are meaningful.
The degree-0 coboundary takes a family (one section combination per cover
context) to its pairwise disagreements on overlaps; gluing is exactly its
kernel, the lattice of integer-coefficient families with all disagreements
zero.  A supported section's obstruction asks whether some family in that
lattice extends it, i.e. whether the lattice's projection onto the section's
context contains the section's generator.  That is decided exactly by Smith
normal form: one of D0 for a kernel basis, H0 and H1's torsion (D1 adds its
rank), then one of the projected basis per context for all of its sections.
A vanishing obstruction's witness is that family as a plain integer tuple w
over ``CoboundaryMatrices.vertex_basis``: D0 w = 0, and w is the section's
generator e_s on its context's block.  Non-vanishing certifies
non-extendability; the converse is not asserted anywhere.

The nerve's cells, the non-empty pairwise and triple overlaps of the cover,
are enumerated by :func:`build_coboundary_matrices` as it assembles D0 and D1.
Basis conventions: sections are ordered lexicographically within each cell,
cells by cover index (edges by (i, j), triangles by (i, j, k), i < j < k),
with the alternating signs that convention induces.  Invariants do not
depend on these choices.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

from .errors import MATRIX_LIMIT, SizeLimitExceeded
from .intlinalg import SmithForm, ZMat, kernel_basis, quotient_invariants, smith_normal_form
from .presheaf import Section, SupportModel, restriction_map, section_label
from .scenario import Context


# ---------------------------------------------------------------------------
# Integer matrices of the complex over supported-section bases.


@dataclass(frozen=True)
class CoboundaryMatrices:
    """D0: C0 -> C1 and D1: C1 -> C2 over supported-section bases.

    Row/column index maps are stored alongside; D1 . D0 = 0 is checked once,
    by :func:`cech_invariants`.  The Smith form of D0, its kernel and the
    per-context projections of the kernel are computed on first use and kept.
    """

    vertex_basis: tuple[tuple[int, Section], ...]
    edge_basis: tuple[tuple[int, Section], ...]
    triangle_basis: tuple[tuple[int, Section], ...]
    d0: ZMat
    d1: ZMat

    @cached_property
    def d0_form(self) -> SmithForm:
        return smith_normal_form(self.d0)

    @cached_property
    def kernel(self) -> list[list[int]]:
        """Integer basis of ker D0: every family with zero coboundary."""
        return kernel_basis(self.d0_form)

    @cached_property
    def projections(self) -> dict[int, tuple[list[int], SmithForm]]:
        """Per context index in ``vertex_basis``: its block of D0 columns and
        the Smith form of ker D0 projected onto it (the projected basis spans
        the projection)."""
        kernel = self.kernel
        blocks: dict[int, list[int]] = {}
        for c, (vi, _) in enumerate(self.vertex_basis):
            blocks.setdefault(vi, []).append(c)
        projected = (ZMat(len(b), len(kernel), [[k[c] for k in kernel] for c in b])
                     for b in blocks.values())
        return {vi: (b, smith_normal_form(p)) for (vi, b), p in zip(blocks.items(), projected)}


def _coboundary(
    cells: list[tuple[Context, tuple[tuple[int, int], ...]]],
    face_contexts: tuple[Context, ...],
    face_basis: tuple[tuple[int, Section], ...],
    limit: int,
) -> tuple[tuple[tuple[int, Section], ...], ZMat]:
    """The basis (cell, section) of the cells and the coboundary into it.

    ``cells`` lists each cell's context and its (face, sign) pairs.  A cell's
    basis is its faces' sections restricted to it from ``face_contexts[face]``;
    each face section's column holds the face's sign in the row of its
    restriction to the cell.
    """
    columns: dict[int, list[int]] = {}
    for c, (face, _) in enumerate(face_basis):
        columns.setdefault(face, []).append(c)
    basis: list[tuple[int, Section]] = []
    entries = []
    for ci, (context, faces) in enumerate(cells):
        cols, restricted = [], []
        for face, sign in faces:
            cols += [(c, sign) for c in columns.get(face, ())]
            sections, positions = restriction_map(
                (face_basis[c][1] for c in columns.get(face, ())), face_contexts[face], context)
            restricted += [sections[r] for r in positions]
        # faces and cells list their members in scenario order, so each
        # restriction is already a section over the cell; pool them
        sections, positions = restriction_map(restricted, context, context)
        entries += [(len(basis) + r, c, sign) for r, (c, sign) in zip(positions, cols)]
        basis += [(ci, s) for s in sections]
    if len(basis) * max(len(face_basis), 1) > limit:
        raise SizeLimitExceeded("coboundary matrix exceeds the size budget")
    mat = ZMat.zeros(len(basis), len(face_basis))
    for row, col, sign in entries:
        mat.a[row][col] = sign
    return tuple(basis), mat


def build_coboundary_matrices(
    support_model: SupportModel, limit: int = MATRIX_LIMIT
) -> CoboundaryMatrices:
    """Assemble the integer coboundary matrices of a support model.

    D1 . D0 = 0 by construction; :func:`cech_invariants` checks it once,
    when the invariants are computed.  ``limit`` bounds each matrix, and is
    checked before it is allocated.
    """
    cover = support_model.scenario.cover
    vertex_basis = tuple(
        (vi, s) for vi, ctx in enumerate(cover) for s in support_model.support(ctx)
    )
    edges, edge_of = [], {}
    for i, j in itertools.combinations(range(len(cover)), 2):
        overlap = cover[i].intersect(cover[j])
        if overlap.members:
            edge_of[i, j] = len(edges)
            edges.append((overlap, ((j, 1), (i, -1))))
    edge_basis, d0 = _coboundary(edges, cover, vertex_basis, limit)
    triangles = [
        (overlap, ((edge_of[j, k], 1), (edge_of[i, k], -1), (edge_of[i, j], 1)))
        for i, j, k in itertools.combinations(range(len(cover)), 3)
        if (overlap := cover[i].intersect(cover[j]).intersect(cover[k])).members
    ]
    edge_contexts = tuple(overlap for overlap, _ in edges)
    triangle_basis, d1 = _coboundary(triangles, edge_contexts, edge_basis, limit)
    return CoboundaryMatrices(vertex_basis, edge_basis, triangle_basis, d0, d1)


# ---------------------------------------------------------------------------
# Obstructions from the kernel lattice, and the cohomology invariants.


@dataclass(frozen=True)
class SectionObstruction:
    context_index: int
    section: Section
    vanishes: bool
    #: the extending family over ``vertex_basis`` when the obstruction vanishes
    witness: tuple[int, ...] | None


def obstruction(
    support_model: SupportModel,
    context_index: int,
    section: Section,
    matrices: CoboundaryMatrices,
) -> SectionObstruction:
    """Decide whether a compatible integer family extends the section.

    With K an integer basis of ker D0, the obstruction vanishes exactly when
    (K restricted to the context's block) z = e_section has an integer
    solution.  The blocks' Smith forms are computed once, for every context,
    and kept on ``matrices``.  A solution gives the witness w = K z, one
    integer per entry of ``matrices.vertex_basis``: D0 w = 0, and on the
    context's block w is the section's generator e_section.  Unsolvability
    is the non-vanishing obstruction.
    """
    ctx = support_model.scenario.cover[context_index]
    if section not in support_model.support(ctx):
        raise ValueError(f"section {section_label(section)} not in the support of {ctx.label()}")

    # the block lists the context's columns in support order
    block, nf = matrices.projections[context_index]
    fixed = support_model.support(ctx).index(section)
    z = nf.solve([int(r == fixed) for r in range(len(block))])
    if z is None:
        return SectionObstruction(context_index, section, False, None)

    family = [0] * len(matrices.vertex_basis)
    for zj, k in zip(z, matrices.kernel):
        if zj:
            family = [f + zj * kc for f, kc in zip(family, k)]
    return SectionObstruction(context_index, section, True, tuple(family))


@dataclass(frozen=True)
class CechInvariants:
    h0_rank: int
    h1_rank: int
    h1_torsion: tuple[int, ...]


def cech_invariants(matrices: CoboundaryMatrices) -> CechInvariants:
    """H0 = ker D0; H1 = ker D1 / im D0, once D1 . D0 = 0 is checked."""
    if not matrices.d1.matmul(matrices.d0).is_zero():
        raise ValueError("D1 . D0 != 0; not a chain complex")
    h0 = len(matrices.kernel)
    h1_rank, torsion = quotient_invariants(matrices.d1, matrices.d0_form)
    return CechInvariants(h0, h1_rank, tuple(torsion))


@dataclass(frozen=True)
class ObstructionReport:
    """Per-section verdicts plus the cover's cohomology invariants."""

    entries: tuple[SectionObstruction, ...]
    invariants: CechInvariants

    @property
    def any_nonvanishing(self) -> bool:
        return any(not e.vanishes for e in self.entries)


def obstruction_report(
    support_model: SupportModel,
    matrix_limit: int = MATRIX_LIMIT,
) -> ObstructionReport:
    """Obstruction of every supported section, in deterministic order.

    Verdicts and invariants share one set of matrices and len(cover) + 2
    Smith forms: of D0, of D1 and of one projection per context.
    """
    matrices = build_coboundary_matrices(support_model, limit=matrix_limit)
    entries = tuple(
        obstruction(support_model, ci, section, matrices)
        for ci, ctx in enumerate(support_model.scenario.cover)
        for section in support_model.support(ctx)
    )
    return ObstructionReport(entries, cech_invariants(matrices))
