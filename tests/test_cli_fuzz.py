"""The CLI exit-code contract under generated JSON: `toric env`, `toric
numcartier`, `toric defect`, `toric mult`, `toric mixed`, `toric izumi`,
`endo check`, `endo monotonic` and `validate` exit 0, 2, 3 or 4, and
`surface volume`, `classify`, `zariski`, `pullback` and `standard` exit 0,
2 or 3; none raises.

Inputs mix valid isolated cones, divisors and ideals with wrong types,
bools, floats, wrong lengths, non-primitive and zero rays, valuations and
exponents outside the cone, and ideals that are not m-primary.  Graphs mix
negative-definite trees and cycles with graphs that are not negative
definite, disconnected, or carry loops, bools, floats or missing vertices.
Entries stay small, so every computation is cheap.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from singvol import ToricCone, hilbert_basis
from singvol.cli import main

CONES = [
    [[1]],
    [[-1]],
    [[1, 0], [0, 1]],
    [[1, 0], [-2, 3]],
    [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, -1]],
    [[1, 0, 1], [-1, 0, 1], [1, 1, 1], [-1, -1, 1], [0, 1, 1], [0, -1, 1]],
    [[1, 0, 0], [0, 1, 0], [-1, -1, 3]],
    [[1, 0, 0, 1], [-1, 0, 0, 1], [0, 1, 0, 1], [0, -1, 0, 1], [0, 0, 1, 1], [0, 0, -1, 1]],
]

junk = st.one_of(
    st.booleans(),
    st.none(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(["", "a", "1", "-1/2", "3/0", "1_0", " 1", "1.5", "+2"]),
)
entries = st.one_of(st.integers(-3, 3), junk)
vectors = st.lists(st.integers(-3, 3), min_size=1, max_size=5)
json_values = st.recursive(
    st.one_of(st.integers(-3, 3), junk),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.sampled_from(["dim", "rays", "coeffs", "gens", "x"]), inner, max_size=3),
    ),
    max_leaves=10,
)


@st.composite
def cones(draw):
    """A listed cone, possibly with one ray scaled (non-primitive), dropped,
    lengthened, zeroed or given a junk entry; or up to five generated rays
    in dimension 2 or 3; or any JSON."""
    kind = draw(st.integers(0, 3))
    if kind == 3:
        return draw(json_values)
    if kind == 2:
        n = draw(st.integers(2, 3))
        ray = st.lists(st.integers(-3, 3), min_size=n, max_size=n)
        rays = draw(st.lists(ray, min_size=1, max_size=5))
        return {"dim": draw(st.one_of(st.just(n), entries)), "rays": rays}
    rays = [list(ray) for ray in draw(st.sampled_from(CONES))]
    if kind == 1:
        i = draw(st.integers(0, len(rays) - 1))
        change = draw(st.sampled_from(["scale", "drop", "lengthen", "junk", "zero"]))
        if change == "scale":
            rays[i] = [2 * x for x in rays[i]]
        elif change == "drop":
            del rays[i]
        elif change == "lengthen":
            rays[i].append(1)
        elif change == "junk":
            rays[i][0] = draw(junk)
        else:
            rays[i] = [0] * len(rays[i])
    return {"dim": len(rays[0]) if rays else 0, "rays": rays}


listed_cones = st.sampled_from(CONES).map(lambda rays: {"dim": len(rays[0]), "rays": rays})

coefficient = st.one_of(
    st.integers(-3, 3),
    st.sampled_from(["2", "-1", "1/2", "-3/2", "0"]),
    entries,
)


def shape(cone):
    """(number of rays, dimension) of a cone object, or None."""
    rays = cone.get("rays") if isinstance(cone, dict) else None
    if isinstance(rays, list) and rays and isinstance(rays[0], list):
        return len(rays), len(rays[0])
    return None


@st.composite
def divisors(draw, cone):
    """Mostly one coefficient per ray, some of them junk; else any length,
    or any JSON."""
    kind, count = draw(st.integers(0, 3)), (shape(cone) or (3, 3))[0]
    if kind == 3:
        return draw(json_values)
    size = draw(st.integers(1, 7)) if kind == 2 else count
    strategy = st.integers(-3, 3) if kind == 0 else coefficient
    return {"coeffs": draw(st.lists(strategy, min_size=size, max_size=size))}


@st.composite
def at_texts(draw, cone, least=0):
    """A sum of rays, each taken at least ``least`` times (inside the cone,
    and interior to it when ``least`` is positive), its negative (outside
    it), any short vector, or malformed text."""
    kind = draw(st.integers(0, 3))
    rays = cone["rays"] if shape(cone) else []
    if kind < 2 and rays and all(type(x) is int for ray in rays for x in ray):
        weights = draw(st.lists(st.integers(least, 2), min_size=len(rays), max_size=len(rays)))
        v = [sum(w * ray[j] for w, ray in zip(weights, rays) if j < len(ray))
             for j in range(len(rays[0]))]
        v = v if kind == 0 else [-x for x in v]
    elif kind < 3:
        v = draw(vectors)
    else:
        return draw(st.sampled_from(["", "1,,2", "a", "1.0,2", "1, 2", "--1,1"]))
    return ",".join(map(str, v))


@st.composite
def invocations(draw):
    """(argv without the file paths, the cone object, the other object)."""
    command = draw(st.sampled_from(["env", "numcartier", "defect", "validate"]))
    cone = draw(cones())
    other = draw(divisors(cone))
    if command == "env":
        return ["toric", "env", "--at=" + draw(at_texts(cone))], cone, other
    if command == "numcartier":
        return ["toric", "numcartier"], cone, other
    if command == "defect":
        argv = ["toric", "defect", "--m", str(draw(st.integers(0, 2)))]
        if draw(st.booleans()):
            argv.append("--at=" + draw(at_texts(cone)))
        return argv, cone, other
    kind = draw(st.sampled_from(["cone", "divisor", "ideal", "matrix", "graph"]))
    target = draw(st.one_of(st.just(cone), st.just(other), json_values))
    return ["validate", "--kind", kind], cone, target


def semigroup(rays):
    cone = ToricCone(rays)
    return cone.facet_normals, hilbert_basis(cone)


# (dual rays, Hilbert basis) of each listed cone, by its rays as JSON.
SEMIGROUPS = {json.dumps(rays): semigroup(rays) for rays in CONES}


@st.composite
def ideals(draw, cone, kind):
    """By kind: 0, on a listed cone, a multiple of each dual ray plus sums
    of Hilbert basis elements (m-primary); 1 and 2, the same with a dual
    ray left out (not m-primary), an exponent outside the dual cone, a
    wrong length or a junk entry; 3, or on any other cone, short integer
    vectors; 4, any JSON."""
    if kind == 4:
        return draw(json_values)
    rays = cone.get("rays") if isinstance(cone, dict) else None
    semigroup = SEMIGROUPS.get(json.dumps(rays))
    if semigroup is None or kind == 3:
        return {"gens": draw(st.lists(vectors, min_size=1, max_size=4))}
    dual_rays, basis = semigroup
    multiples = draw(st.lists(st.integers(1, 3), min_size=len(dual_rays), max_size=len(dual_rays)))
    gens = [[k * x for x in w] for w, k in zip(dual_rays, multiples)]
    for _ in range(draw(st.integers(0, 3))):
        picks = draw(st.lists(st.sampled_from(basis), min_size=1, max_size=3))
        gens.append([sum(col) for col in zip(*picks)])
    if kind in (1, 2):
        change = draw(st.sampled_from(["drop", "outside", "lengthen", "junk"]))
        i = draw(st.integers(0, len(dual_rays) - 1))
        if change == "drop":
            del gens[i]
        elif change == "outside":
            gens.append([-x for x in gens[i]])
        elif change == "lengthen":
            gens[i].append(1)
        else:
            gens[i][0] = draw(junk)
    return {"gens": gens}


@st.composite
def ideal_invocations(draw, command):
    """(argv without the file paths, the cone object, the ideal objects):
    half the time a listed cone, and half the time only unspoilt ideals, so
    that the computations run too.  `toric mixed` reads as many ideals as
    the cone has dimensions (at least one, as `--ideals` needs), or one to
    four."""
    cone = draw(st.one_of(listed_cones, cones()))
    dim = (shape(cone) or (0, 2))[1]
    count = draw(st.one_of(st.just(max(dim, 1)), st.integers(1, 4))) if command == "mixed" else 1
    kinds = st.just(0) if draw(st.booleans()) else st.integers(0, 4)
    objects = [draw(ideals(cone, draw(kinds))) for _ in range(count)]
    if command == "validate":
        return ["validate", "--kind", "ideal"], cone, objects
    return ["toric", command], cone, objects


@st.composite
def graphs(draw):
    """A random tree plus extra edges, each self-intersection at most minus
    the degree (negative definite when strictly below it), possibly
    spoilt: a vertex made too positive, an edge dropped (disconnected), a
    loop, an edge to a missing vertex, a negative genus or a junk entry;
    or any JSON."""
    kind = draw(st.integers(0, 3))
    if kind == 3:
        return draw(json_values)
    k = draw(st.integers(1, 6))
    edges = [[draw(st.integers(0, v - 1)), v, draw(st.integers(1, 2))] for v in range(1, k)]
    for _ in range(draw(st.integers(0, 2))):
        i, j = draw(st.integers(0, k - 1)), draw(st.integers(0, k - 1))
        if i != j:
            edges.append([i, j, draw(st.integers(1, 2))])
    degree = [0] * k
    for i, j, mult in edges:
        degree[i] += mult
        degree[j] += mult
    vertices = [{"self": -degree[v] - draw(st.integers(0, 2)), "genus": draw(st.integers(0, 2))}
                for v in range(k)]
    if kind > 0:
        change = draw(st.sampled_from(["positive", "drop", "loop", "missing", "junk", "genus"]))
        v = draw(st.integers(0, k - 1))
        if change == "positive":
            vertices[v]["self"] = draw(st.integers(-1, 2))
        elif change == "drop":
            if edges:
                del edges[draw(st.integers(0, len(edges) - 1))]
        elif change == "loop":
            edges.append([v, v, 1])
        elif change == "missing":
            edges.append([v, k + draw(st.integers(0, 2)), 1])
        elif change == "junk":
            if edges and draw(st.booleans()):
                edges[0][draw(st.integers(0, 2))] = draw(junk)
            else:
                vertices[v][draw(st.sampled_from(["self", "genus"]))] = draw(junk)
        else:
            vertices[v]["genus"] = -1
    return {"vertices": vertices, "edges": edges}


@st.composite
def surface_invocations(draw, commands=("volume", "classify", "zariski")):
    """(argv without the file paths, the graph object, a divisor or None)."""
    command = draw(st.sampled_from(commands))
    graph = draw(graphs())
    divisor = None
    if command in ("zariski", "pullback") and draw(st.booleans()):
        vertices = graph.get("vertices") if isinstance(graph, dict) else None
        count = len(vertices) if isinstance(vertices, list) else 3
        size = count if draw(st.booleans()) else draw(st.integers(1, 7))
        divisor = draw(st.one_of(
            st.fixed_dictionaries({"coeffs": st.lists(coefficient, min_size=size, max_size=size)}),
            json_values,
        ))
    return ["surface", command], graph, divisor


# Text that argparse reads as no integer.
bad_ints = st.sampled_from(["", "x", "1.5", "2/1", " 3"])

# Each family's options with values it accepts; Du Val names from A1 up.
STANDARD_OPTIONS = {
    "cone": {"--g": st.integers(0, 4).map(str), "--d": st.integers(1, 4).map(str)},
    "cusp_cycle": {"--self-ints=": st.lists(st.integers(-5, -2), min_size=1, max_size=6).map(
        lambda ints: ",".join(map(str, ints)))},
    "duval": {"--name": st.sampled_from(["A1", "A4", "D4", "D7", "E6", "E7", "E8"])},
}


@st.composite
def standard_invocations(draw):
    """`surface standard` argv: a family with its options, one of them
    dropped, out of range or malformed a third of the time, or given the
    options of another family."""
    family = draw(st.sampled_from(sorted(STANDARD_OPTIONS)))
    options = {flag: draw(values) for flag, values in STANDARD_OPTIONS[family].items()}
    if draw(st.integers(0, 2)) == 0:
        flag = draw(st.sampled_from(sorted(options)))
        change = draw(st.sampled_from(["drop", "range", "malformed", "other"]))
        if change == "drop":
            del options[flag]
        elif change == "range":
            options[flag] = draw(st.sampled_from(["-1", "0", "1", "-3,1", "A0", "D3", "E9", "X2"]))
        elif change == "malformed":
            options[flag] = draw(st.one_of(bad_ints, st.sampled_from(["a", "-2,,-3", "-2.0"])))
        else:
            family = draw(st.sampled_from(sorted(STANDARD_OPTIONS)))
    argv = ["surface", "standard", "--family", family]
    for flag, value in options.items():
        argv += [flag + value] if flag.endswith("=") else [flag, value]
    return argv


@st.composite
def matrices(draw, cone):
    """A matrix object: a positive multiple of the identity or of a swap of
    the first two coordinates, any short integer rows, or any JSON."""
    kind = draw(st.integers(0, 3))
    n = (shape(cone) or (3, 3))[1]
    if kind == 3:
        return draw(json_values)
    if kind == 2:
        return {"matrix": draw(st.lists(vectors, min_size=1, max_size=4))}
    k = draw(st.integers(1, 2))
    rows = [[k * (i == j) for j in range(n)] for i in range(n)]
    if kind == 1 and n > 1:
        rows[0], rows[1] = rows[1], rows[0]
    return {"matrix": rows}


@st.composite
def endo_invocations(draw, command):
    """(argv without the file paths, {option: object written to a file}):
    `endo check` with an optional divisor and ideal, `endo monotonic` on a
    cone or on a surface cover given by integer option text."""
    cone = draw(st.one_of(listed_cones, cones()))
    files = {"--cone": cone, "--matrix": draw(matrices(cone))}
    if command == "check":
        if draw(st.booleans()):
            files["--divisor"] = draw(divisors(cone))
        if draw(st.booleans()):
            files["--ideal"] = draw(ideals(cone, draw(st.integers(0, 4))))
        return ["endo", "check"], files
    if draw(st.booleans()):
        return ["endo", "monotonic", "--case", "toric"], files
    argv = ["endo", "monotonic", "--case", "surface_cover"]
    for flag in ("--g", "--d", "--e"):
        kind = draw(st.integers(0, 7))
        if kind:
            argv += [flag, draw(bad_ints if kind == 1 else st.integers(-1, 3).map(str))]
    return argv, {}


@st.composite
def izumi_invocations(draw):
    """(argv, {"--cone": cone}): half the time a listed cone, and two
    valuations, each interior, outside or malformed."""
    cone = draw(st.one_of(listed_cones, cones()))
    v, w = draw(at_texts(cone, least=1)), draw(at_texts(cone, least=1))
    return ["toric", "izumi", "--v=" + v, "--w=" + w], {"--cone": cone}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects an option value
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(invocations())
def test_exit_codes_under_generated_json(workdir, invocation):
    argv, cone, other = invocation
    cone_path, other_path = workdir / "cone.json", workdir / "other.json"
    cone_path.write_text(json.dumps(cone))
    other_path.write_text(json.dumps(other))
    if argv[0] == "validate":
        argv = argv + ["--cone", str(cone_path), str(other_path)]
    else:
        argv = argv + ["--cone", str(cone_path), "--divisor", str(other_path)]
    code, out, err = run_main(argv)
    assert code in (0, 2, 3, 4), (argv, cone, other, code, err)
    assert "Traceback" not in err
    if code == 0:
        json.loads(out)
    else:
        assert err.startswith(("error: ", "usage: ")), err


@pytest.mark.parametrize("command", ["mult", "mixed", "validate"])
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_ideal_exit_codes_under_generated_json(workdir, command, data):
    argv, cone, objects = data.draw(ideal_invocations(command))
    cone_path = workdir / "cone.json"
    cone_path.write_text(json.dumps(cone))
    paths = []
    for i, obj in enumerate(objects):
        paths.append(workdir / f"ideal{i}.json")
        paths[-1].write_text(json.dumps(obj))
    argv = argv + ["--cone", str(cone_path)]
    if command == "validate":
        argv.append(str(paths[0]))
    elif command == "mult":
        argv += ["--ideal", str(paths[0])]
    else:
        argv += ["--ideals", *map(str, paths)]
    code, out, err = run_main(argv)
    assert code in (0, 2, 3, 4), (argv, cone, objects, code, err)
    assert "Traceback" not in err
    if code == 0:
        json.loads(out)
    else:
        assert err.startswith("error: "), err


def assert_exit_contract(argv, code, out, err, codes=(0, 2, 3, 4)):
    assert code in codes, (argv, code, err)
    assert "Traceback" not in err
    if code == 0:
        json.loads(out)
    else:
        assert err.startswith(("error: ", "usage: ")), err


def with_files(workdir, argv, files):
    """argv followed by each option and the path of a file holding its object."""
    argv = list(argv)
    for option, obj in files.items():
        path = workdir / (option.strip("-") + ".json")
        path.write_text(json.dumps(obj))
        argv += [option, str(path)]
    return argv


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(standard_invocations())
def test_surface_standard_exit_codes(argv):
    code, out, err = run_main(argv)
    assert_exit_contract(argv, code, out, err, codes=(0, 2, 3))


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(surface_invocations(commands=("pullback",)))
def test_surface_pullback_exit_codes_under_generated_json(workdir, invocation):
    argv, graph, divisor = invocation
    files = {"--graph": graph} if divisor is None else {"--graph": graph, "--divisor": divisor}
    argv = with_files(workdir, argv, files)
    code, out, err = run_main(argv)
    assert_exit_contract(argv, code, out, err, codes=(0, 2, 3))


@pytest.mark.parametrize("command", ["check", "monotonic"])
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_endo_exit_codes_under_generated_json(workdir, command, data):
    argv, files = data.draw(endo_invocations(command))
    argv = with_files(workdir, argv, files)
    code, out, err = run_main(argv)
    assert_exit_contract(argv, code, out, err)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(izumi_invocations())
def test_izumi_exit_codes_under_generated_json(workdir, invocation):
    argv, files = invocation
    argv = with_files(workdir, argv, files)
    code, out, err = run_main(argv)
    assert_exit_contract(argv, code, out, err)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(surface_invocations())
def test_surface_exit_codes_under_generated_json(workdir, invocation):
    argv, graph, divisor = invocation
    graph_path = workdir / "graph.json"
    graph_path.write_text(json.dumps(graph))
    argv = argv + ["--graph", str(graph_path)]
    if divisor is not None:
        divisor_path = workdir / "divisor.json"
        divisor_path.write_text(json.dumps(divisor))
        argv += ["--divisor", str(divisor_path)]
    code, out, err = run_main(argv)
    assert code in (0, 2, 3), (argv, graph, divisor, code, err)
    assert "Traceback" not in err
    if code == 0:
        json.loads(out)
    else:
        assert err.startswith("error: "), err
