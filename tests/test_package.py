import ast
import importlib
import inspect
import pkgutil
from pathlib import Path
from types import ModuleType

import pytest

import detmld
from detmld import (
    INF,
    DeterminantalPair,
    DoubleTableau,
    ExtendedPartition,
    LocusTarget,
    MinorIndex,
    MldValue,
    MultiPoly,
    PointTarget,
    PreconditionError,
    Tableau,
    YoungDiagram,
    beta_coefficients,
    bideterminant,
    chart_form,
    clear_caches,
    compare_with_closed_form,
    contact_order_subvariety,
    discrepancy_objective,
    dominance_leq,
    enumerate_standard_basis,
    is_lc_along,
    is_lc_at_rank,
    is_standard,
    is_terminal,
    minimize_objective,
    minor_poly,
    mld_along,
    mld_at_rank,
    nash_contact_order,
    new_pair,
    new_partition,
    orbit_codim,
    orbit_codim_point,
    orbit_has_finite_codim,
    orbit_in_jet_space,
    orbit_meets_point_fiber,
    reduce_top_form,
    semicontinuity_profile,
    series_minor_order,
    straighten,
    subalgebra_membership,
    substitute_series,
    tableau_leq,
    verify_chart_transition,
    verify_nash,
)
from detmld.tableaux import enumerate_standard_tableaux

SUBMODULES = ("core", "forms", "linalg", "mld", "oracle", "orbits", "polynomials", "tableaux")


def test_all_exports_no_modules():
    assert not [name for name in detmld.__all__ if isinstance(getattr(detmld, name), ModuleType)]
    # the submodules stay reachable as attributes
    for name in SUBMODULES:
        assert isinstance(getattr(detmld, name), ModuleType)


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from detmld import *", namespace)
    public = {
        name: value
        for name, value in vars(detmld).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }
    assert "verify_nash" in public and "clear_caches" in public
    for name, value in public.items():
        assert namespace.get(name) is value, name
    assert not set(SUBMODULES) & set(namespace)



def test_no_unused_module_imports():
    # __init__ imports names to re-export them, so it is left out
    unused = []
    for path in sorted(Path(detmld.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                unused += [
                    f"{path.name}:{node.lineno} {alias.name}"
                    for alias in node.names
                    if (alias.asname or alias.name.split(".")[0]) not in used
                ]
    assert not unused


def _private_definitions(tree):
    """Module-level private functions, classes and constants: (node, name)."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [target.id for target in targets if isinstance(target, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield node, name


def test_no_unused_private_names():
    # every private module-level name is read somewhere in the package outside
    # its own definition (a recursive call or an assignment does not count)
    trees = {
        path.name: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(Path(detmld.__file__).parent.glob("*.py"))
    }
    reads = [
        (node, node.id if isinstance(node, ast.Name) else node.attr)
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        or isinstance(node, ast.Attribute)
    ]
    definitions = [
        (module, definition, name)
        for module, tree in trees.items()
        for definition, name in _private_definitions(tree)
    ]
    unused = []
    for module, definition, name in definitions:
        inside = {id(node) for node in ast.walk(definition)}
        if not any(read == name and id(node) not in inside for node, read in reads):
            unused.append(f"{module} {name}")
    assert definitions
    assert not unused


def test_no_unused_parameters_in_private_functions():
    # every parameter of a private module-level function is read in its body
    unused = []
    for path in sorted(Path(detmld.__file__).parent.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, ast.FunctionDef) or not node.name.startswith("_"):
                continue
            if node.name.startswith("__"):
                continue
            args = node.args
            params = args.posonlyargs + args.args + args.kwonlyargs
            params += [a for a in (args.vararg, args.kwarg) if a is not None]
            reads = {
                n.id
                for statement in node.body
                for n in ast.walk(statement)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
            }
            unused += [f"{path.name} {node.name}({a.arg})" for a in params if a.arg not in reads]
    assert not unused


def module_caches():
    """Every module-level `_*_CACHE` dict of the detmld submodules, keyed by
    "module._NAME"."""
    caches = {}
    for info in pkgutil.iter_modules(detmld.__path__):
        module = importlib.import_module(f"detmld.{info.name}")
        for name, value in vars(module).items():
            if name.startswith("_") and name.endswith("_CACHE") and isinstance(value, dict):
                caches[f"{info.name}.{name}"] = value
    return caches


def test_clear_caches_empties_every_module_cache():
    caches = module_caches()
    assert "tableaux._BLOCK_CACHE" in caches and "forms._ELIMINATION_CACHE" in caches
    sentinel = object()
    for cache in caches.values():
        cache[sentinel] = None
    try:
        detmld.clear_caches()
        assert not [name for name, cache in caches.items() if cache]
    finally:
        for cache in caches.values():
            cache.pop(sentinel, None)


def test_benchmark_tracer_targets_exist():
    # The benchmark's tracer wraps library functions by name, so deleting or
    # renaming one breaks the traced runs; its source is read, not imported.
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
    tracer = ModuleType("tracer")
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), vars(tracer))
    targets = [(module, attr_path) for _, module, attr_path in tracer.TRACED]
    assert targets
    missing = []
    for module_name, attr_path in targets + [("detmld.oracle", "iter_tails")]:
        owner = importlib.import_module(module_name)
        for part in attr_path.split("."):
            owner = vars(owner).get(part)
            if owner is None:
                missing.append(f"{module_name}:{attr_path}")
                break
    assert not missing


# The input contract of the public API: every size, count, rank or index
# argument is an int (not a bool) in its documented range, and anything else
# raises PreconditionError.  Each row is a known-good small call whose
# parameters are exactly the size, count and index arguments it passes on,
# with good defaults; a row without parameters has none.
_PAIR = new_pair(2, 1, (0,))
_LAM = new_partition((INF, 1))
_T = Tableau(((1,),))
_DT = DoubleTableau(_T, Tableau(((2,),)))
_CHART = chart_form((1,), (1,), 2, 1)

CONTRACT = {
    "DeterminantalPair": lambda m=2, k=1: DeterminantalPair(m, k, (0,)),
    "DoubleTableau": lambda: DoubleTableau(_T, _T),
    "ExtendedPartition": lambda entry=0: ExtendedPartition((INF, entry)),
    "MinorIndex": lambda row=1, col=2: MinorIndex((row,), (col,)),
    "MldValue": lambda: MldValue(1),
    "MultiPoly": lambda m=2: MultiPoly(m),
    "Tableau": lambda entry=1: Tableau(((entry,),)),
    "YoungDiagram": lambda row=1: YoungDiagram((row,)),
    "beta_coefficients": lambda count=1: beta_coefficients(_PAIR, count),
    "bideterminant": lambda m=2: bideterminant(_DT, m),
    "chart_form": lambda row=1, col=2, m=2, k=1: chart_form((row,), (col,), m, k),
    "clear_caches": lambda: clear_caches(),
    "compare_with_closed_form": lambda j=1, bound=1: compare_with_closed_form(
        _PAIR, LocusTarget(j), bound
    ),
    "contact_order_subvariety": lambda i=1: contact_order_subvariety(_LAM, _PAIR, i),
    "discrepancy_objective": lambda q=0: discrepancy_objective(_PAIR, _LAM, PointTarget(q)),
    "dominance_leq": lambda: dominance_leq(YoungDiagram((1,)), YoungDiagram((1,))),
    "enumerate_standard_basis": lambda m=2, count=1, k_bound=1: enumerate_standard_basis(
        m, ((count, 0), (0, count)), k_bound
    ),
    "is_lc_along": lambda j=1: is_lc_along(_PAIR, j),
    "is_lc_at_rank": lambda q=0: is_lc_at_rank(_PAIR, q),
    "is_standard": lambda: is_standard(_T),
    "is_terminal": lambda m=2, k=1: is_terminal(m, k),
    "minimize_objective": lambda q=0, bound=1: minimize_objective(_PAIR, PointTarget(q), bound),
    "minor_poly": lambda index=1, m=2: minor_poly(MinorIndex((index,), (1,)), m),
    "mld_along": lambda j=1: mld_along(_PAIR, j),
    "mld_at_rank": lambda q=0: mld_at_rank(_PAIR, q),
    "nash_contact_order": lambda: nash_contact_order(_LAM, _PAIR),
    "new_pair": lambda m=2, k=1: new_pair(m, k),
    "new_partition": lambda entry=0: new_partition((INF, entry)),
    "orbit_codim": lambda: orbit_codim(_LAM, _PAIR),
    "orbit_codim_point": lambda q=0: orbit_codim_point(_LAM, _PAIR, q),
    "orbit_has_finite_codim": lambda: orbit_has_finite_codim(_LAM, _PAIR),
    "orbit_in_jet_space": lambda: orbit_in_jet_space(_LAM, _PAIR),
    "orbit_meets_point_fiber": lambda q=0: orbit_meets_point_fiber(_LAM, _PAIR, q),
    "reduce_top_form": lambda i=2, j=1: reduce_top_form(((1, 1), (1, 2), (i, j)), _CHART),
    "semicontinuity_profile": lambda: semicontinuity_profile(_PAIR),
    "series_minor_order": lambda exponent=0, m=2, size=1, truncation=2: series_minor_order(
        (exponent, 1), m, size, truncation
    ),
    "straighten": lambda m=2, k_bound=1: straighten(_DT, m, k_bound),
    "subalgebra_membership": lambda m=2, k=1: subalgebra_membership(MultiPoly.one(2), m, k),
    "substitute_series": lambda truncation=1: substitute_series(
        MultiPoly.one(1), [[[1, 0]]], truncation
    ),
    "tableau_leq": lambda: tableau_leq(_T, _T),
    "verify_chart_transition": lambda row=1, m=2, k=1: verify_chart_transition(
        (row,), (1,), (2,), (1,), m, k
    ),
    "verify_nash": lambda m=2, k=1: verify_nash(m, k),
}

# Public callables outside the table, with the reason.
EXEMPT = {
    "BetaVector": "output record of beta_coefficients",
    "ChartForm": "output record of chart_form, which checks m, k and the chart indices",
    "Membership": "output record of subalgebra_membership",
    "NashReport": "output record of verify_nash",
    "OracleComparison": "output record of compare_with_closed_form",
    "OracleResult": "output record of minimize_objective",
    "PointTarget": "record; q is checked against the pair wherever a target is used",
    "LocusTarget": "record; j is checked against the pair wherever a target is used",
    "PreconditionError": "the exception the contract raises",
    "ReductionResult": "output record of reduce_top_form",
    "StandardExpansion": "output record of straighten and the standard-basis routines",
}

NOT_INTEGERS = (True, 2.0, "2", -1)


def test_contract_table_covers_every_public_callable():
    public = {name for name in detmld.__all__ if callable(getattr(detmld, name))}
    assert not public - CONTRACT.keys() - EXEMPT.keys()
    assert not (CONTRACT.keys() | EXEMPT.keys()) - public
    assert not CONTRACT.keys() & EXEMPT.keys()


@pytest.mark.parametrize("name", sorted(CONTRACT))
def test_sizes_counts_and_indices_must_be_integers(name):
    call = CONTRACT[name]
    call()
    accepted = []
    for argument in inspect.signature(call).parameters:
        for value in NOT_INTEGERS:
            try:
                call(**{argument: value})
            except PreconditionError:
                continue
            accepted.append(f"{argument}={value!r}")
    assert not accepted


# An argument of the wrong structure is a precondition error, not a
# traceback from deep inside the call.
@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: Tableau(5), id="Tableau"),
        pytest.param(lambda: YoungDiagram(5), id="YoungDiagram"),
        pytest.param(lambda: MinorIndex(1, 2), id="MinorIndex"),
        pytest.param(lambda: DoubleTableau(None, None), id="DoubleTableau"),
        pytest.param(lambda: straighten(None, 2), id="straighten"),
        pytest.param(lambda: bideterminant(None, 2), id="bideterminant"),
        pytest.param(lambda: new_pair(2, 1, 5), id="new_pair_alphas"),
        pytest.param(lambda: ExtendedPartition(5), id="ExtendedPartition"),
        pytest.param(lambda: enumerate_standard_basis(2, content=5), id="basis_content"),
        pytest.param(lambda: enumerate_standard_tableaux(2, (1,), 5), id="tableaux_content"),
        pytest.param(lambda: reduce_top_form(5, chart_form((1,), (1,), 2, 1)), id="positions"),
        pytest.param(lambda: reduce_top_form([(1, 1), (1, 2), (2, 1)], None), id="chart"),
        pytest.param(lambda: chart_form(None, (1,), 2, 1), id="chart_form_rows"),
        pytest.param(lambda: minor_poly(None, 2), id="minor_poly"),
        pytest.param(lambda: is_standard(None), id="is_standard"),
        pytest.param(lambda: mld_at_rank(None, 1), id="mld_at_rank"),
        pytest.param(lambda: subalgebra_membership(None, 2, 1), id="subalgebra_membership"),
        pytest.param(lambda: MultiPoly(2, 5), id="MultiPoly_terms"),
    ],
)
def test_structural_arguments_must_have_their_type(call):
    with pytest.raises(PreconditionError):
        call()
