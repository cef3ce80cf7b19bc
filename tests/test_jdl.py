import dataclasses
import hashlib
import importlib.resources
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deskgrid import jdl
from deskgrid.jdl import (UNDEFINED, Attr, Binary, JdlError, JdlSyntaxError,
                          Lit, ListLit, MemberCall, MissingAttribute, Unary,
                          evaluate, parse_expr, parse_jdl, requirement_satisfied)

from conftest import seeded_mutations
from jdl_reference import (ast_equal, description_text, expr_text, gen_env, gen_expr,
                           model_eval, values_agree)


def fixture_text(name: str) -> str:
    return importlib.resources.files("deskgrid").joinpath(
        "data", "jdl", name).read_text()


FIXTURES = ("atlas_100.jdl", "cms_gen_small.jdl", "data_driven.jdl",
            "awkward.jdl", "rank_idle.jdl", "minimal.jdl")


# -- parsing ------------------------------------------------------------

def test_atlas_fixture_fields():
    jd = parse_jdl(fixture_text("atlas_100.jdl"))
    assert jd.executable == "atlsim"
    assert jd.job_profile == "atlsim"
    assert jd.input_sandbox == ("dc1_cards.txt",)
    assert jd.output_sandbox == ("dc1_partition.zebra", "control_histos.hbook")
    assert jd.virtual_organisation == "datatag"
    assert jd.events == 100
    assert jd.job_seed == 17
    assert jd.rank is None
    env = {"RunTimeEnvironment": ("ATLAS-3.2.1", "CMS")}
    assert requirement_satisfied(jd.requirements, env)
    assert not requirement_satisfied(jd.requirements, {"RunTimeEnvironment": ("CMS",)})


def test_minimal_fixture_defaults():
    jd = parse_jdl(fixture_text("minimal.jdl"))
    assert jd.std_output == "std.out"
    assert jd.std_error == "std.err"
    assert jd.events == 1
    assert jd.job_seed == 0
    assert jd.arguments == ()
    assert jd.input_data == ()
    assert jd.extras == {}


def test_profile_name_strips_path_and_extension():
    jd = parse_jdl(fixture_text("awkward.jdl"))
    assert jd.executable == "bin/myapp.sh"
    assert jd.job_profile == "myapp"
    # single-string Arguments folds to a one-entry tuple
    assert jd.arguments == ("--mode fast -n 3",)


def test_unknown_attributes_kept_as_expressions():
    jd = parse_jdl(fixture_text("awkward.jdl"))
    assert jd.extras["MaxRetries"] == Lit(3)
    assert list(jd.extras) == ["MaxRetries", "Note"]  # declaration order
    assert jd.extra_int("MaxRetries") == 3
    assert jd.extra_string("Note") == 'half # hash, one " quote'
    assert jd.extra_string("Nothing") is None


def test_data_driven_fixture_lfns():
    jd = parse_jdl(fixture_text("data_driven.jdl"))
    assert jd.input_data == ("lfn:demo_1.ntpl",)
    assert jd.input_lfns == ("demo_1.ntpl",)
    assert jd.replica_catalog == "rc_cnaf"


def test_a_replaced_description_derives_its_profile_and_inputs_again():
    """`job_profile` and `input_lfns` are set at construction, so a
    description replaced with another executable and inputs carries the new
    ones, the old keeps its own, and a pickled copy keeps them."""
    jd = parse_jdl(fixture_text("data_driven.jdl"))
    moved = dataclasses.replace(jd, executable="bin/atlsim.sh",
                                input_data=("lfn:a.ntpl", "b.ntpl"))
    assert (moved.job_profile, moved.input_lfns) == ("atlsim", ("a.ntpl", "b.ntpl"))
    assert (jd.job_profile, jd.input_lfns) == ("cmsim", ("demo_1.ntpl",))
    copy = pickle.loads(pickle.dumps(moved))
    assert copy == moved and description_text(copy) == description_text(moved)
    assert (copy.job_profile, copy.input_lfns) == ("atlsim", ("a.ntpl", "b.ntpl"))


@pytest.mark.parametrize("missing", ["Executable", "Requirements",
                                     "VirtualOrganisation"])
def test_required_attributes(missing):
    lines = {
        "Executable": 'Executable = "x";',
        "Requirements": "Requirements = true;",
        "VirtualOrganisation": 'VirtualOrganisation = "vo";',
    }
    text = "\n".join(v for k, v in lines.items() if k != missing)
    with pytest.raises(MissingAttribute) as err:
        parse_jdl(text)
    assert err.value.attribute == missing


def test_duplicate_attribute_rejected():
    text = 'Executable = "x";\nExecutable = "y";\nRequirements = true;\n' \
           'VirtualOrganisation = "vo";'
    with pytest.raises(JdlSyntaxError, match="duplicate"):
        parse_jdl(text)


def test_input_data_needs_catalog():
    text = ('Executable = "x";\nRequirements = true;\n'
            'VirtualOrganisation = "vo";\nInputData = {"lfn:a"};')
    with pytest.raises(JdlError, match="ReplicaCatalog"):
        parse_jdl(text)


def test_events_must_be_positive():
    text = ('Executable = "x";\nRequirements = true;\n'
            'VirtualOrganisation = "vo";\nEvents = 0;')
    with pytest.raises(JdlError, match="at least 1"):
        parse_jdl(text)


@pytest.mark.parametrize("attribute", ["Events", "JobSeed"])
@pytest.mark.parametrize("value", ["true", "-true", "-false"])
def test_a_boolean_is_not_an_integer_attribute(attribute, value):
    text = ('Executable = "x";\nRequirements = true;\n'
            f'VirtualOrganisation = "vo";\n{attribute} = {value};')
    with pytest.raises(JdlError, match="must be an integer literal"):
        parse_jdl(text)


def test_virtual_organisation_is_checked_before_arguments():
    text = ('Executable = "x";\nRequirements = true;\n'
            'VirtualOrganisation = 1;\nArguments = 3;')
    with pytest.raises(JdlError) as excinfo:
        parse_jdl(text)
    assert str(excinfo.value) == \
        "line 3, col 1: VirtualOrganisation must be a string literal"


def test_a_boolean_job_index_is_no_production_tag():
    jd = parse_jdl('Executable = "x";\nRequirements = true;\n'
                   'VirtualOrganisation = "vo";\nDataset = "jpsi";\nJobIndex = true;')
    assert jd.extra_int("JobIndex") is None
    assert jd.production_tag() is None


def test_syntax_errors_carry_position():
    with pytest.raises(JdlSyntaxError) as err:
        parse_jdl('Executable = "x"\nRequirements = true;')
    assert err.value.line == 2  # the missing ';' is noticed at Requirements
    with pytest.raises(JdlSyntaxError, match="unterminated string"):
        parse_jdl('Executable = "x;')
    with pytest.raises(JdlSyntaxError, match="stray character"):
        parse_expr("1 @ 2")


def test_comparisons_do_not_chain():
    for text, col in (("1 < 2 < 3", 7), ("true && 1 < 2 < 3", 15)):
        with pytest.raises(JdlSyntaxError, match=f"col {col}: trailing input"):
            parse_expr(text)
        with pytest.raises(JdlSyntaxError, match=f"line 2, col {col + 7}: expected ';', found '<'"):
            parse_jdl(f'Executable = "x";\nNote = {text};')


def test_a_number_is_made_of_ascii_digits():
    for text, col in (("²", 1), ("1²", 2), ("other.a == ٣", 12), ("other.a٣", 8)):
        with pytest.raises(JdlSyntaxError, match=f"line 1, col {col}: stray character"):
            parse_expr(text)
    with pytest.raises(JdlSyntaxError, match="line 2, col 10: stray character"):
        parse_jdl('Executable = "x";\nEvents = ²;')


def test_precedence_shapes():
    e = parse_expr("true || false && false")
    assert e == Binary("||", Lit(True), Binary("&&", Lit(False), Lit(False)))
    e = parse_expr("!other.Flag == true")
    assert e == Binary("==", Unary("!", Attr("Flag")), Lit(True))
    e = parse_expr("-3 < other.X && true")
    assert e == Binary("&&", Binary("<", Unary("-", Lit(3)), Attr("X")), Lit(True))


def test_keywords_case_insensitive_attributes_not():
    assert parse_expr("TRUE") == Lit(True)
    assert parse_expr("False") == Lit(False)
    assert parse_expr('member("a", {"a"})') == MemberCall(Lit("a"), ListLit((Lit("a"),)))
    assert parse_expr("other.LRMSType") == Attr("LRMSType")
    assert parse_expr("OTHER.x") == Attr("x")


# -- evaluation ---------------------------------------------------------

def test_three_valued_truth_table():
    u = Attr("Missing")  # evaluates UNDEFINED in an empty env
    t, f = Lit(True), Lit(False)
    assert evaluate(Binary("||", t, u)) is True         # right arm skipped
    assert evaluate(Binary("&&", f, u)) is False
    assert evaluate(Binary("||", f, u)) is UNDEFINED
    assert evaluate(Binary("&&", t, u)) is UNDEFINED
    assert evaluate(Binary("||", u, t)) is UNDEFINED    # left bias: no rescue
    assert evaluate(Binary("&&", u, f)) is UNDEFINED


def test_short_circuit_skips_right_arm_entirely():
    # a right arm that would blow up if visited
    bomb = Binary("<", Lit("s"), ListLit(()))  # would be UNDEFINED anyway
    assert evaluate(Binary("||", Lit(True), bomb)) is True
    assert evaluate(Binary("&&", Lit(False), bomb)) is False


def test_comparison_type_discipline():
    assert evaluate(parse_expr("1 < 2")) is True
    assert evaluate(parse_expr("2.5 >= 2.5")) is True
    assert evaluate(parse_expr('"a" < "b"')) is UNDEFINED   # ordering is numeric only
    assert evaluate(parse_expr('"a" == "a"')) is True
    assert evaluate(parse_expr('"a" != "b"')) is True
    assert evaluate(parse_expr('1 == "1"')) is UNDEFINED
    assert evaluate(parse_expr("true == false")) is False
    assert evaluate(parse_expr("true == 1")) is UNDEFINED


def test_unary_discipline():
    assert evaluate(parse_expr("!true")) is False
    assert evaluate(parse_expr("!5")) is UNDEFINED
    assert evaluate(parse_expr("-5")) == -5
    assert evaluate(parse_expr('-"x"')) is UNDEFINED
    assert evaluate(Unary("!", Attr("Missing"))) is UNDEFINED


def test_member_and_lists():
    env = {"RunTimeEnvironment": ("CMS", "ATLAS-3.2.1")}
    assert evaluate(parse_expr('Member("CMS", other.RunTimeEnvironment)'), env) is True
    assert evaluate(parse_expr('Member("ALICE", other.RunTimeEnvironment)'), env) is False
    assert evaluate(parse_expr('Member("x", other.Missing)'), env) is UNDEFINED
    assert evaluate(parse_expr('Member(3, {"a"})'), env) is UNDEFINED
    assert evaluate(parse_expr('{"a", "b"}')) == ("a", "b")
    assert evaluate(ListLit((Lit(3),))) is UNDEFINED  # non-string entry
    assert evaluate(Attr("L"), {"L": ["x"]}) == ("x",)  # lists surface as tuples


def test_undefined_refuses_python_truth():
    with pytest.raises(TypeError):
        bool(UNDEFINED)
    assert not requirement_satisfied(Attr("Missing"), {})


def test_member_conjunction_narrows_matches():
    # adding a Member conjunct can only shrink the satisfying set
    base = parse_expr('Member("CMS", other.RunTimeEnvironment)')
    narrowed = parse_expr('Member("CMS", other.RunTimeEnvironment) '
                          '&& Member("CMS-1.2", other.RunTimeEnvironment)')
    envs = [{"RunTimeEnvironment": tags} for tags in
            [(), ("CMS",), ("CMS-1.2",), ("CMS", "CMS-1.2"), ("x", "CMS")]]
    for env in envs:
        if requirement_satisfied(narrowed, env):
            assert requirement_satisfied(base, env)


# -- round-trips --------------------------------------------------------

@pytest.mark.parametrize("name", FIXTURES)
def test_fixture_round_trip_is_a_fixpoint(name):
    first = parse_jdl(fixture_text(name))
    once = description_text(first)
    second = parse_jdl(once)
    assert description_text(second) == once
    assert second.executable == first.executable
    assert second.events == first.events
    assert second.extras == first.extras
    assert expr_text(second.requirements) == expr_text(first.requirements)


def test_expr_text_parenthesizes_only_when_needed():
    assert expr_text(parse_expr("true || false && true")) == "true || false && true"
    e = Binary("&&", Binary("||", Lit(True), Lit(False)), Lit(True))
    assert expr_text(e) == "(true || false) && true"
    assert expr_text(parse_expr("-(-5)")) == "--5"  # parens not needed back out


def test_unary_minus_of_comparison_needs_parens():
    e = Unary("-", Binary("<", Lit(1), Lit(2)))
    text = expr_text(e)
    assert ast_equal(parse_expr(text), e)


@settings(max_examples=400, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_generated_ast_round_trips_exactly(seed):
    rng = random.Random(seed)
    expr = gen_expr(rng)
    text = expr_text(expr)
    again = parse_expr(text)
    assert ast_equal(expr, again), text
    assert expr_text(again) == text


@settings(max_examples=400, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_evaluator_matches_independent_model(seed):
    rng = random.Random(seed)
    expr = gen_expr(rng)
    env = gen_env(rng)
    real = evaluate(expr, env)
    model = model_eval(expr, env)
    assert values_agree(real, model), (expr_text(expr), env, real, model)


def test_rank_expression_evaluates_against_published_figures():
    jd = parse_jdl(fixture_text("rank_idle.jdl"))
    value = evaluate(jd.rank, {"EstimatedTraversalTime": 62.5})
    assert value == -62.5


# -- extras ---------------------------------------------------------------

#: sha256 of `description_text(parse_jdl(f))` per shipped description, as rendered
#: when extras were kept as text only
TEXT_DIGESTS = {
    "atlas_100.jdl": "45d2cfdd5a143dc58d24f39ebbf33ae957d2f199449b59c87f506275ba529d1d",
    "awkward.jdl": "8f5947a7c8f6b1406ee1293593ad0a64c61b0a5c8ab41e94280b4b3a53683427",
    "cms_gen_small.jdl": "84d1ef86ee61868992f001e3e075993a6517f36555627c5c42bbfe9c8b975651",
    "data_driven.jdl": "5cd1702226ec6d1bea82c68ee8252ca692d7e20c73c2421ac5f386550c537edc",
    "minimal.jdl": "6032550e0df0c69b29b8529e4882eec1e2d429c5aeeabb314038bfe26edd5b76",
    "rank_idle.jdl": "e3edcb621bd0a43231e2f3b37905bbd693f9b6eb17010c73d072a458807ac550",
}


@pytest.fixture
def counted_parse_expr(monkeypatch):
    calls = []

    def counting(text):
        calls.append(text)
        return parse_expr(text)

    monkeypatch.setattr(jdl, "parse_expr", counting)
    return calls


def factory_description(grid, proxy):
    """The description the second job of a factory request was submitted with."""
    request = grid.refdb.create_request("jpsi", "CMKIN", 500, 250, "rb_test",
                                        default_se="se_beta")
    grid.production.declare(request.assignment_id)
    grid.production.create(request.assignment_id)
    grid.production.submit(request.assignment_id, proxy)
    return grid.brokers["rb_test"].jobs[request.scheduler_jobs[1]].description


def test_parsed_extras_answer_without_reparsing(mini, alice, counted_parse_expr):
    jd = parse_jdl(description_text(factory_description(mini, alice)))
    assert jd.production_tag() == ("jpsi", 2)
    assert jd.extra_string("DefaultSE") == "se_beta"
    assert jd.extra_int("Dataset") is None and jd.extra_string("JobIndex") is None
    assert counted_parse_expr == []


def test_hand_built_extras_read_without_parsing(mini, alice, counted_parse_expr):
    parsed = parse_jdl(description_text(factory_description(mini, alice)))
    built = jdl.JobDescription(
        executable="cmkin", virtual_organisation="testvo", requirements=Lit(True),
        extras={"Dataset": Lit("jpsi"), "JobIndex": Lit(2),
                "DefaultSE": Lit("se_beta")})
    assert built.extras == parsed.extras
    assert built.production_tag() == parsed.production_tag() == ("jpsi", 2)
    assert built.extra_string("DefaultSE") == "se_beta"
    built.extras["JobIndex"] = Lit(3)
    assert built.production_tag() == ("jpsi", 3)
    assert 'JobIndex = 3;' in description_text(built)
    assert counted_parse_expr == []


def test_factory_jobs_run_to_their_default_se_without_parsing(mini, alice,
                                                              counted_parse_expr):
    request = mini.refdb.create_request("jpsi", "CMKIN", 500, 250, "rb_test",
                                        default_se="se_beta")
    mini.production.declare(request.assignment_id)
    mini.production.create(request.assignment_id)
    mini.production.submit(request.assignment_id, alice)
    mini.kernel.run_to_completion()
    summary = mini.production.post_summary(request.assignment_id)
    assert summary["jobs_ok"] == 2 and summary["lfns"] == ["jpsi_1.ntpl", "jpsi_2.ntpl"]
    for lfn in summary["lfns"]:
        assert [se for se, _path in mini.datagrid.lookup(lfn)] == ["se_beta"]
    assert counted_parse_expr == []


EXTRA_NAMES = ("Dataset", "JobIndex", "DefaultSE", "MaxRetries", "Note",
               "executable", "Other_2")  # names are case-sensitive


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_descriptions_with_generated_extras_round_trip(seed):
    rng = random.Random(seed)
    names = rng.sample(EXTRA_NAMES, rng.randrange(0, len(EXTRA_NAMES) + 1))
    jd = jdl.JobDescription(
        executable="cmkin", virtual_organisation="testvo",
        requirements=gen_expr(rng),
        rank=gen_expr(rng) if rng.random() < 0.5 else None,
        events=rng.randrange(1, 10**6), job_seed=rng.randrange(-10, 10**6),
        extras={name: gen_expr(rng) for name in names})
    again = parse_jdl(description_text(jd))
    assert again == jd, description_text(jd)
    assert list(again.extras) == names


@pytest.mark.parametrize("name", sorted(TEXT_DIGESTS))
def test_text_rendering_is_unchanged(name):
    rendered = description_text(parse_jdl(fixture_text(name)))
    assert hashlib.sha256(rendered.encode()).hexdigest() == TEXT_DIGESTS[name]


# -- seeded mutations -----------------------------------------------------

#: assignments the shipped descriptions lack or get right, so mutations
#: also reach every reserved attribute's checks
EXTRA_JDL_LINES = (
    'Arguments = {"-n", "3"};', "Arguments = 3;", 'Arguments = {"a", 1};',
    'Rank = other.FreeCPUs;', 'InputData = {"lfn:x"};', 'InputData = "lfn:y";',
    'ReplicaCatalog = "rc";', "ReplicaCatalog = rc;", "Events = 0;", "Events = -3;",
    "Events = 2.5;", "JobSeed = -4;", "VirtualOrganisation = 1;", "Executable = {};",
    "StdOutput = true;", "Dataset = \"jpsi\";", "JobIndex = 4;", "Requirements = ;",
    "Note = Member(\"a\", {\"a\"});", "garbage",
)
EXTRA_JDL_VALUES = ("true", "0", "-1", '""', "{}", '{"x"}', "other.A", "1.5", "-true")


def _mutated_descriptions(count: int, seed: int):
    inputs = [fixture_text(name) for name in FIXTURES]
    return seeded_mutations(inputs, EXTRA_JDL_LINES, EXTRA_JDL_VALUES, count, seed, end=";")


def _jdl_outcome(text: str) -> str:
    try:
        jd = parse_jdl(text)
    except JdlError as exc:
        return f"{type(exc).__name__}: {exc}"
    return repr(jd) + description_text(jd)


#: sha256 of the outcomes below, joined by "\n\0"
MUTATION_DIGEST = "0e302fb736d61708bd1271fdfc94cdfcf3833c7603b4142860194eac310ea542"


def test_seeded_mutation_outcomes_are_pinned():
    """Every diagnostic, every parsed description and its rendering over
    2,000 seeded line deletions, insertions and value swaps of the shipped
    descriptions, pinned as one digest."""
    outcomes = [_jdl_outcome(text) for text in _mutated_descriptions(2000, 20261)]
    digest = hashlib.sha256("\n\x00".join(outcomes).encode()).hexdigest()
    assert digest == MUTATION_DIGEST



# -- expression token fuzz ------------------------------------------------

FUZZ_VALUES = ("1", "20", "2.5", '"s"', '"a\\"b"', "true", "FALSE", "other.x", "OTHER.Y",
               'Member("s", {"s"})', "member(other.x, other.y)")
FUZZ_PREFIXES = ("!", "-", "(", "{")
FUZZ_INFIXES = ("||", "&&", "==", "!=", "<", "<=", ">", ">=")
FUZZ_STRAYS = ("=", ";", ".", ",", ")", "}", "other", "x", '"', "Member(", "{}", "#")
FUZZ_GAPS = ("", " ", " ", " ", "\n", " # c\n")


def _fuzzed_expressions(count: int, seed: int):
    """`count` token strings, mostly shaped like expressions (an operand
    where one may start, an operator or a matching closer after it) so
    that about half parse; one token in twenty is drawn from everything,
    stray marks included, for the error paths."""
    rng = random.Random(seed)
    for _ in range(count):
        parts, closers, operand = [], [], True
        for _ in range(rng.randint(1, 10)):
            if rng.random() < 0.05:
                token = rng.choice(FUZZ_STRAYS + FUZZ_VALUES + FUZZ_PREFIXES + FUZZ_INFIXES)
            elif operand:
                token = rng.choice(FUZZ_VALUES if rng.random() < 0.7 else FUZZ_PREFIXES)
                operand = token in FUZZ_PREFIXES
                if token in ("(", "{"):
                    closers.append(")" if token == "(" else "}")
            elif closers and rng.random() < 0.3:
                token = closers.pop()
            else:
                in_list = closers[-1:] == ["}"]
                token = "," if in_list and rng.random() < 0.5 else rng.choice(FUZZ_INFIXES)
                operand = True
            parts.append(token)
        if operand:
            parts.append(rng.choice(FUZZ_VALUES))
        parts += reversed(closers)
        yield "".join(rng.choice(FUZZ_GAPS) + part for part in parts)


def _expr_outcome(text: str) -> str:
    try:
        return repr(parse_expr(text))
    except JdlError as exc:
        return f"{type(exc).__name__}: {exc}"


#: sha256 of the outcomes below, joined by "\n\0"
TOKEN_FUZZ_DIGEST = "b80c7e69f1402ba4a814c82b901263307dd6ce2bc8732f46093520c33a625d9b"


def test_seeded_token_fuzz_outcomes_are_pinned():
    """Every tree and every diagnostic of `parse_expr` over 20,000 seeded
    token strings (operators, marks, literals, attributes, Member calls,
    comments and newlines), pinned as one digest."""
    outcomes = [_expr_outcome(text) for text in _fuzzed_expressions(20000, 2026)]
    digest = hashlib.sha256("\n\x00".join(outcomes).encode()).hexdigest()
    assert digest == TOKEN_FUZZ_DIGEST


def test_undefined_reads_as_its_name():
    assert repr(UNDEFINED) == "UNDEFINED"


def test_other_must_be_followed_by_an_attribute_name():
    with pytest.raises(JdlSyntaxError, match="expected attribute name after 'other.'"):
        parse_expr("other.5 > 1")


def test_a_value_that_is_not_an_expression_is_refused():
    for call in (expr_text, lambda expr: evaluate(expr, {})):
        with pytest.raises(TypeError, match="not an expression: 'true'"):
            call("true")
