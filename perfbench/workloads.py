"""The three workloads: seeded inputs, operations and their output checks.

A workload is set up once (densities, warm-up) and then runs rounds. A
round is a generator of operations: it yields an Op, receives the op's
result (None when it failed) and yields the next. Round r draws its
inputs from SeedSequence([seed, r, ...]), so a seed fixes every input of
every round. The program only ever receives the generated inputs.
"""

import contextlib
import dataclasses
import io
from typing import Callable

import numpy as np

import checks
from tracing import INTERFACE_LOOKUPS, SURFACE_EVALS


@dataclasses.dataclass(frozen=True)
class Op:
    name: str
    fn: Callable      # fn() -> result, the timed part
    check: Callable   # check(result) -> list of problems, untimed


def rng_for(seed, *path):
    return np.random.default_rng(np.random.SeedSequence([seed, *path]))


def random_pair(rng, dim):
    return rng.normal(size=(dim, dim)), rng.normal(size=(dim, dim))


def random_unit(rng, dim):
    v = rng.normal(size=dim)
    return v / np.linalg.norm(v)


class Workload:
    """Shared set-up: densities the benchmark builds, and a warm-up call."""

    trace_rounds = 1   # rounds the traced per-layer figures cover

    def __init__(self, seed, m, tracer=None):
        self.seed = seed
        self.m = m
        self.tracer = tracer
        self.psi = self.surface_density("abs_normal_jump")
        self.ds = m.energy.DensitySet.simple(m.energy.bulk_density("zero"), self.psi)
        # First calls into scipy's simplex search and numpy's linear algebra
        # pay one-off import and dispatch costs; pay them here, in set-up.
        m.cell.estimate_relaxed_bulk(np.eye(2), np.zeros((2, 2)), self.ds)

    def surface_density(self, name):
        """Registry density; traced runs count each evaluation of it."""
        base = self.m.energy.surface_density(name)
        if self.tracer is None:
            return base
        fn, tracer = base.fn, self.tracer

        def counted(lam, nu):
            tracer.count(SURFACE_EVALS)
            return fn(lam, nu)

        return dataclasses.replace(base, fn=counted)


class CellSweep(Workload):
    """Sandwich checks through the CLI runner plus 3-D surface estimates.

    A round interleaves four 2-D pairs and one 3-D pair, each run as a
    verify-expl config with explicit pairs over all three trace kinds, with
    four seeded 3-D surface data (lam, nu).
    """

    trace_rounds = 8

    def __init__(self, seed, m, tracer=None):
        super().__init__(seed, m, tracer)
        # The frame grids are cached per dimension; the 3-D one holds
        # 216,000 rotations. Build both before timing starts.
        m.cell.frame_grid_minimum(np.eye(2), self.psi)
        m.cell.frame_grid_minimum(np.eye(3), self.psi)

    def verify_op(self, A, B):
        config = {"command": "verify-expl", "dim": A.shape[0],
                  "pairs": [{"A": A.tolist(), "B": B.tolist()}]}

        def run():
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                self.m.cli.run(config, jobs=1)
            return out.getvalue()

        return Op(f"verify-expl-{A.shape[0]}d", run,
                  lambda text: checks.check_sandwich_rows(A, B, checks.parse_csv(text)))

    def surface_op(self, lam, nu):
        return Op("surface-3d",
                  lambda: self.m.cell.estimate_relaxed_surface(lam, nu, self.psi).value,
                  lambda value: checks.check_surface(lam, nu, value))

    def round(self, r):
        rng = rng_for(self.seed, r)
        pairs = [random_pair(rng, 2) for _ in range(4)]
        pair3 = random_pair(rng, 3)
        surfaces = [(rng.normal(size=3), random_unit(rng, 3)) for _ in range(4)]
        plan = [self.verify_op(*pairs[0]), self.surface_op(*surfaces[0]),
                self.verify_op(*pairs[1]), self.surface_op(*surfaces[1]),
                self.verify_op(*pair3),
                self.verify_op(*pairs[2]), self.surface_op(*surfaces[2]),
                self.verify_op(*pairs[3]), self.surface_op(*surfaces[3])]
        for op in plan:
            yield op


class StaircaseCertify(Workload):
    """Certified bulk estimates, whose staircases are realized and integrated.

    A round has eight 2-D pairs at the default refinements (4, 8, 16, 32),
    two 3-D pairs at (4, 8, 12), and the sequence reports of the broken ramp
    and the deck of cards at four seeded refinements in 2..48. A 3-D pair at
    the default refinements takes 6-14 s, too long to average over enough
    of them in one run; shorter operations also let the reference samples
    around them follow the machine's speed more closely.
    """

    trace_rounds = 3
    SCHEDULE_2D = (4, 8, 16, 32)
    SCHEDULE_3D = (4, 8, 12)

    def certify_op(self, A, B):
        schedule = self.SCHEDULE_2D if A.shape[0] == 2 else self.SCHEDULE_3D
        budget = self.m.cell.OptimizerBudget(certify=True, n_schedule=schedule)

        def run():
            sol = self.m.cell.estimate_relaxed_bulk(A, B, self.ds, budget)
            return sol.value, sol.meta["realized"]

        return Op(f"certify-{A.shape[0]}d", run,
                  lambda out: checks.check_certified(A, B, out[0], out[1], schedule))

    def sequence_op(self, name, ns):
        fields = self.m.fields
        build, dim, check = {
            "broken-ramp": (fields.broken_ramp_deformation, 1, checks.check_broken_ramp),
            "deck-of-cards": (fields.deck_of_cards_deformation, 3, checks.check_deck_of_cards),
        }[name]
        frame = self.m.core.identity_frame(dim)
        return Op(f"sequence-{name}",
                  lambda: self.m.fields.sequence_report(build(), frame, ns, self.ds),
                  lambda reports: check(reports, ns))

    def round(self, r):
        rng = rng_for(self.seed, r)
        pairs = [random_pair(rng, 2) for _ in range(8)]
        pairs3 = [random_pair(rng, 3) for _ in range(2)]
        ns = {name: sorted(int(n) for n in rng.choice(np.arange(2, 49), size=4, replace=False))
              for name in ("broken-ramp", "deck-of-cards")}
        for half, name in enumerate(("broken-ramp", "deck-of-cards")):
            for p in pairs[4 * half:4 * half + 2]:
                yield self.certify_op(*p)
            yield self.certify_op(*pairs3[half])
            for p in pairs[4 * half + 2:4 * half + 4]:
                yield self.certify_op(*p)
            yield self.sequence_op(name, ns[name])


class DesignSearch(Workload):
    """Seeded local search of two-phase layouts on a 2x2 mesh.

    Per round, one continuous and one discontinuous 2-D deformation, each
    with fresh memo tables. The search first walks all 16 layouts one flip
    at a time (a Gray code through seeded cell order from a seeded start),
    so every interface cell the tables can meet is met once, early layouts
    cold and later ones partly warm; then it makes greedy two-cell flips
    from the best layout, which are all warm. Walking every layout keeps
    the number of interface-cell estimates per round fixed (32 continuous,
    64 discontinuous), so the work done does not depend on the seed.
    """

    RESOLUTION = 2
    GREEDY_STEPS = 8

    def __init__(self, seed, m, tracer=None):
        super().__init__(seed, m, tracer)
        e = m.energy
        self.design_ds = e.DensitySet.design(
            e.bulk_density("zero"), e.bulk_density("zero"),
            self.surface_density("abs_normal_jump"), self.surface_density("abs_normal_jump"),
            e.interface_density("phase_gap_normal_jump"))

    def tables(self):
        od = self.m.optdesign
        tables = od.DesignDensityTables.from_estimators(self.design_ds)
        if self.tracer is None:
            return tables
        lookup, tracer = tables.interface, self.tracer

        def counted(*args):
            tracer.count(INTERFACE_LOOKUPS)
            return lookup(*args)

        return od.DesignDensityTables(bulk=tables.bulk, interface=counted)

    def layout_op(self, sd, tables, layout, continuous):
        od = self.m.optdesign
        mesh = sd.g.mesh
        values = np.zeros(mesh.n_cells, dtype=int)
        for multi in mesh.multi_indices():
            values[mesh.flat_index(multi)] = layout[multi]
        chi = od.PhaseField(mesh, values)
        bulk = checks.trace_bulk(sd.g.gradients, sd.G, mesh.cell_volume)
        perimeter = checks.grid_perimeter(layout)

        def check(value):
            upper = None if continuous else od.design_energy(chi, sd.g, self.design_ds)
            return checks.check_design(value, bulk, perimeter, continuous, upper)

        kind = "continuous" if continuous else "discontinuous"
        return Op(f"layout-{kind}",
                  lambda: self.m.optdesign.relaxed_design_energy(chi, sd, tables), check)

    def round(self, r):
        rng = rng_for(self.seed, r)
        cells = self.RESOLUTION ** 2
        for continuous in (True, False):
            sd = self.m.fields.random_structured_deformation(
                np.random.SeedSequence([self.seed, r, int(continuous)]), dim=2,
                resolution=self.RESOLUTION, continuous=continuous)
            tables = self.tables()
            start = rng.integers(0, 2, size=cells)
            order = rng.permutation(cells)
            best = None
            for k in range(2 ** cells):
                gray = k ^ (k >> 1)
                layout = start.copy()
                for bit in range(cells):
                    layout[order[bit]] ^= (gray >> bit) & 1
                layout = layout.reshape(self.RESOLUTION, self.RESOLUTION)
                value = yield self.layout_op(sd, tables, layout, continuous)
                if value is not None and (best is None or value < best[0]):
                    best = (value, layout)
            current_value, current = best if best is not None else (np.inf, layout)
            for _ in range(self.GREEDY_STEPS):
                candidate = current.copy().reshape(-1)
                candidate[rng.choice(cells, size=2, replace=False)] ^= 1
                candidate = candidate.reshape(self.RESOLUTION, self.RESOLUTION)
                value = yield self.layout_op(sd, tables, candidate, continuous)
                if value is not None and value <= current_value:
                    current_value, current = value, candidate


WORKLOADS = {
    "cell-sweep": CellSweep,
    "staircase-certify": StaircaseCertify,
    "design-search": DesignSearch,
}
