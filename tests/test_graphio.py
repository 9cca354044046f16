"""Text and JSON graph documents: parsing, locations, round trips."""

from __future__ import annotations

import gc
import json
import os
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dsep import (
    CycleDetected,
    Dag,
    DsepError,
    DuplicateEdge,
    GraphSyntaxError,
    InvalidArgument,
    SelfLoop,
    UnknownEndpoint,
    augment_dummies,
    build_dag,
    load_graph_file,
    parse_graph,
    parse_graph_json,
    random_sparse_dag,
    serialize_graph,
)

from .conftest import DATA_DIR, small_dags


class TestParseGraph:
    def test_fixture_file_matches_builder(self, web7):
        dag = load_graph_file(str(DATA_DIR / "web7.txt"))
        assert dag.node_count == web7.node_count
        assert [dag.node_name(v) for v in range(7)] == [
            "n1", "n4", "n2", "n3", "n5", "n6", "n7"]
        assert {(dag.node_name(t), dag.node_name(h)) for t, h in dag.edges
                } == {(web7.node_name(t), web7.node_name(h))
                      for t, h in web7.edges}

    def test_names_register_in_order_of_first_appearance(self):
        dag = parse_graph("b -> c\na -> b\n")
        assert [dag.node_name(v) for v in range(3)] == ["b", "c", "a"]

    def test_comments_and_blank_lines_ignored(self):
        dag = parse_graph("# heading\n\n  a -> b  # trailing\n\n")
        assert dag.node_count == 2

    def test_node_lines_declare_isolated_nodes(self):
        dag = parse_graph("node lonely\na -> b\n")
        assert dag.node_name(0) == "lonely"
        assert dag.node_count == 3

    def test_duplicate_node_declaration_located(self):
        with pytest.raises(GraphSyntaxError) as info:
            parse_graph("node a\nnode a\n")
        assert info.value.line == 2
        assert "declared twice" in str(info.value)

    def test_self_loop_located(self):
        with pytest.raises(SelfLoop) as info:
            parse_graph("a -> b\nc -> c\n")
        assert info.value.line == 2

    def test_duplicate_edge_located_and_names_first_line(self):
        with pytest.raises(DuplicateEdge) as info:
            parse_graph("a -> b\nb -> c\na -> b\n")
        assert info.value.line == 3
        assert "line 1" in str(info.value)

    def test_unparseable_line_reports_column(self):
        with pytest.raises(GraphSyntaxError) as info:
            parse_graph("a -> b\n   a => b\n")
        assert info.value.line == 2
        assert info.value.column == 4

    def test_prime_character_rejected(self):
        with pytest.raises(GraphSyntaxError) as info:
            parse_graph("a' -> b\n")
        assert "reserved" in str(info.value)

    def test_bad_charset_rejected(self):
        with pytest.raises(GraphSyntaxError):
            parse_graph("node a,b\n")

    def test_cycle_reported_with_a_witness_line(self):
        with pytest.raises(CycleDetected) as info:
            parse_graph("a -> b\nb -> c\nc -> a\n")
        assert info.value.line in (1, 2, 3)
        assert set(info.value.cycle) == {"a", "b", "c"}

    def test_error_message_carries_location_prefix(self):
        with pytest.raises(GraphSyntaxError) as info:
            parse_graph("?!\n")
        assert str(info.value).startswith("line 1, column 1: ")

    @pytest.mark.parametrize("text", [None, 3, ["a -> b"], {"a"}, b"a -> b"],
                             ids=["None", "int", "list", "set", "bytes"])
    def test_text_that_is_no_str_rejected(self, text):
        with pytest.raises(InvalidArgument, match="must be a str"):
            parse_graph(text)

    def test_empty_document_yields_empty_graph(self):
        dag = parse_graph("")
        assert dag.node_count == 0


class TestTextGrammar:
    """The exact language `parse_graph` accepts, and where it stops."""

    @pytest.mark.parametrize("text, names, edges", [
        ("a->b", ("a", "b"), ((0, 1),)),
        ("a -> b\r\nb -> c\r\n", ("a", "b", "c"), ((0, 1), (1, 2))),
        ("a -> b\x0cb -> c", ("a", "b", "c"), ((0, 1), (1, 2))),
        ("a -> b\u2028b -> c", ("a", "b", "c"), ((0, 1), (1, 2))),
        ("a\xa0->\u3000b\t", ("a", "b"), ((0, 1),)),
        ("a -> b  # note -> here, node c\n", ("a", "b"), ((0, 1),)),
        ("node -> b\n", ("node", "b"), ((0, 1),)),
        ("node->b\n", ("node", "b"), ((0, 1),)),
        ("a -> b\nnode a\n", ("a", "b"), ((0, 1),)),
        (" node\tnode \n", ("node",), ()),
        ("node a\na -> b\n# x\n\n   \nnode c\nb -> c\n", ("a", "b", "c"),
         ((0, 1), (1, 2))),
    ])
    def test_accepted(self, text, names, edges):
        dag = parse_graph(text)
        assert dag.names == names
        assert dag.edges == edges

    @pytest.mark.parametrize("text, error, line, column, message", [
        ("\ufeffa -> b\n", GraphSyntaxError, 1, 1,
         "invalid node name '\\ufeffa' (allowed: letters, digits, '_')"),
        ("node a\nnode a\n", GraphSyntaxError, 2, 6,
         "node 'a' declared twice"),
        ("a -> b\nnode a\nnode  a\n", GraphSyntaxError, 3, 7,
         "node 'a' declared twice"),
        ("a -> b -> c\n", GraphSyntaxError, 1, 1,
         "expected 'node NAME' or 'TAIL -> HEAD', got 'a -> b -> c'"),
        ("a->b->c\n", GraphSyntaxError, 1, 1,
         "invalid node name 'a->b' (allowed: letters, digits, '_')"),
        ("node ->b\n", GraphSyntaxError, 1, 6,
         "invalid node name '->b' (allowed: letters, digits, '_')"),
        ("node a b\n", GraphSyntaxError, 1, 1,
         "expected 'node NAME' or 'TAIL -> HEAD', got 'node a b'"),
        ("x -> y\na' -> b\n", GraphSyntaxError, 2, 1,
         "node name \"a'\" uses the prime character, which is reserved "
         "for dummy parameters"),
        ("a -> b'\n", GraphSyntaxError, 1, 6,
         "node name \"b'\" uses the prime character, which is reserved "
         "for dummy parameters"),
        ("x -> y\na -> b\nb -> c\na -> b\n", DuplicateEdge, 4, 1,
         "duplicate edge a -> b (first at line 2)"),
        ("a -> b\n  c -> c\n", SelfLoop, 2, 3, "self-loop on node 'c'"),
        ("x -> y\nb -> a\nc -> b\na -> c\n", CycleDetected, 4, None,
         "graph contains a cycle: a -> c -> b -> a"),
        ("a -> b\nb -> c\nc -> a\n", CycleDetected, 2, None,
         "graph contains a cycle: b -> c -> a -> b"),
        # The first error in document order wins, and a cycle is only
        # looked for once every line has parsed.
        ("a -> b\na -> b\n?!\n", DuplicateEdge, 2, 1,
         "duplicate edge a -> b (first at line 1)"),
        ("a -> a\nnode x\nnode x\n", SelfLoop, 1, 1, "self-loop on node 'a'"),
        ("a -> b\nc -> c\na -> b\n", SelfLoop, 2, 1, "self-loop on node 'c'"),
        ("a -> b\na -> b\nc -> c\n", DuplicateEdge, 2, 1,
         "duplicate edge a -> b (first at line 1)"),
        ("x -> y\ny -> x\n?!\n", GraphSyntaxError, 3, 1,
         "expected 'node NAME' or 'TAIL -> HEAD', got '?!'"),
    ])
    def test_rejected(self, text, error, line, column, message):
        with pytest.raises(error) as info:
            parse_graph(text)
        assert type(info.value) is error
        assert (info.value.line, info.value.column) == (line, column)
        where = f"line {line}" + (f", column {column}" if column else "")
        assert str(info.value) == f"{where}: {message}"

    def test_cycle_witness_names(self):
        with pytest.raises(CycleDetected) as info:
            parse_graph("x -> y\nb -> a\nc -> b\na -> c\n")
        assert info.value.cycle == ("a", "c", "b")


class TestParseGraphJson:
    def test_minimal_document(self):
        dag = parse_graph_json('{"edges": [["a", "b"], ["b", "c"]]}')
        assert dag.node_count == 3
        assert dag.has_edge(0, 1)

    def test_explicit_nodes_pin_ids(self):
        dag = parse_graph_json(
            '{"nodes": ["z", "a"], "edges": [["a", "z"]]}')
        assert dag.node_name(0) == "z"
        assert dag.has_edge(1, 0)

    def test_explicit_nodes_make_endpoints_strict(self):
        with pytest.raises(UnknownEndpoint):
            parse_graph_json('{"nodes": ["a"], "edges": [["a", "b"]]}')

    def test_invalid_json_carries_location(self):
        with pytest.raises(GraphSyntaxError) as info:
            parse_graph_json('{"edges": [\n  ["a" "b"]\n]}')
        assert info.value.line == 2

    @pytest.mark.parametrize("doc", [
        '[]',
        '{"edges": "ab"}',
        '{"edges": [["a"]]}',
        '{"edges": [["a", 3]]}',
        '{"nodes": [1], "edges": []}',
        '{"nodes": ["x\'"], "edges": []}',
    ])
    def test_malformed_documents_rejected(self, doc):
        with pytest.raises(GraphSyntaxError):
            parse_graph_json(doc)

    PAIR = "each edge must be a [tail, head] pair of strings, got "
    PRIMED = "uses the prime character, which is reserved for dummy parameters"

    @pytest.mark.parametrize("doc,error,message", [
        ('{"edges": [{"a": "b"}]}', GraphSyntaxError, PAIR + "{'a': 'b'}"),
        ('{"edges": ["ab"]}', GraphSyntaxError, PAIR + "'ab'"),
        ('{"edges": [["a"]]}', GraphSyntaxError, PAIR + "['a']"),
        ('{"edges": [["a", "b", "c"]]}', GraphSyntaxError,
         PAIR + "['a', 'b', 'c']"),
        ('{"edges": [["a", 3]]}', GraphSyntaxError, PAIR + "['a', 3]"),
        ('{"edges": [["a", null]]}', GraphSyntaxError, PAIR + "['a', None]"),
        ('{"edges": [["a", ["b"]]]}', GraphSyntaxError, PAIR + "['a', ['b']]"),
        ('{"nodes": ["a", "b"], "edges": [["a", 3]]}', GraphSyntaxError,
         PAIR + "['a', 3]"),
        ('{"nodes": ["a", "b"], "edges": [["a", ["b"]]]}', GraphSyntaxError,
         PAIR + "['a', ['b']]"),
        ('{"edges": {"a": "b"}}', GraphSyntaxError,
         '"edges" must be a list of [tail, head] pairs'),
        ('{"edges": "ab"}', GraphSyntaxError,
         '"edges" must be a list of [tail, head] pairs'),
        ('{"edges": null}', GraphSyntaxError,
         '"edges" must be a list of [tail, head] pairs'),
        ('{"nodes": ["a", 1]}', GraphSyntaxError,
         '"nodes" must be a list of strings'),
        ('{"nodes": "ab"}', GraphSyntaxError,
         '"nodes" must be a list of strings'),
        ('{"nodes": null}', GraphSyntaxError,
         '"nodes" must be a list of strings'),
        ('{"nodes": ["b", "a\'"]}', GraphSyntaxError,
         f'node name "a\'" {PRIMED}'),
        ('{"nodes": ["b", "a-b"]}', GraphSyntaxError,
         "invalid node name 'a-b' (allowed: letters, digits, '_')"),
        ('{"nodes": [""]}', GraphSyntaxError,
         "invalid node name '' (allowed: letters, digits, '_')"),
        ('{"edges": [["a", "b\'"]]}', GraphSyntaxError,
         f'node name "b\'" {PRIMED}'),
        ('{"edges": [["a-b", "c"]]}', GraphSyntaxError,
         "invalid node name 'a-b' (allowed: letters, digits, '_')"),
        ('{"nodes": ["b", "a", "b"]}', GraphSyntaxError,
         "\"nodes\" lists 'b' more than once"),
        ('{"nodes": ["a", "b"], "edges": [["a", "c"]]}', UnknownEndpoint,
         "unknown edge endpoint 'c'"),
        ('{"nodes": ["a", "b"], "edges": [["c", "a"], ["a", "d"]]}',
         UnknownEndpoint, "unknown edge endpoint 'c'"),
        # Several faults: the first in the order of the item-by-item checks.
        ('{"nodes": [1], "edges": [["a", "b"], "ab"]}', GraphSyntaxError,
         PAIR + "'ab'"),
        ('{"nodes": ["a", "x y"], "edges": [["a", 1]]}', GraphSyntaxError,
         PAIR + "['a', 1]"),
        ('{"nodes": ["a-b", "c\'"]}', GraphSyntaxError,
         "invalid node name 'a-b' (allowed: letters, digits, '_')"),
        ('{"nodes": ["a", "a"], "edges": [["a", "c"]]}', UnknownEndpoint,
         "unknown edge endpoint 'c'"),
        ('{"nodes": ["a", "a"], "edges": [["a", "a"]]}', GraphSyntaxError,
         "\"nodes\" lists 'a' more than once"),
        ('{"nodes": ["a", "b", "a\'"], "edges": [["a", "c"]]}',
         GraphSyntaxError, f'node name "a\'" {PRIMED}'),
        ('{"edges": [["a", "a"]]}', SelfLoop, "self-loop on node a"),
        ('{"edges": [["a", "b"], ["a", "b"]]}', DuplicateEdge,
         "duplicate edge a -> b"),
        ('{"edges": [["a", "b"], ["b", "a"]]}', CycleDetected,
         "graph contains a cycle: b -> a -> b"),
        ('[]', GraphSyntaxError, "top-level JSON value must be an object"),
    ])
    def test_each_malformed_document_raises_its_exact_error(self, doc, error,
                                                            message):
        with pytest.raises(DsepError) as info:
            parse_graph_json(doc)
        assert type(info.value) is error
        assert str(info.value) == message
        assert info.value.line is info.value.column is None

    @pytest.mark.parametrize("text", [None, 3, ["{}"], {"a"}],
                             ids=["None", "int", "list", "set"])
    def test_text_that_is_no_str_or_bytes_rejected(self, text):
        with pytest.raises(InvalidArgument, match="must be a str or bytes"):
            parse_graph_json(text)

    @pytest.mark.parametrize("make", [bytes, bytearray])
    def test_bytes_are_read_as_utf8(self, make):
        dag = parse_graph_json(make('{"edges": [["a", "b"]]}'.encode()))
        assert dag.edges == ((0, 1),) and dag.names == ("a", "b")
        with pytest.raises(GraphSyntaxError, match="utf-8"):
            parse_graph_json(make(b'{"nodes": ["\xe9"]}'))

    def test_repeated_node_name_is_a_syntax_error(self):
        with pytest.raises(GraphSyntaxError, match="'a' more than once"):
            parse_graph_json('{"nodes": ["b", "a", "a"]}')

    def test_fixture_equivalence_between_formats(self, tmp_path):
        text_dag = load_graph_file(str(DATA_DIR / "diamond4.txt"))
        json_doc = ('{"nodes": ["1", "3", "4", "2"], '
                    '"edges": [["1", "3"], ["1", "4"], ["2", "4"]]}')
        json_path = tmp_path / "diamond4.json"
        json_path.write_text(json_doc)
        json_dag = load_graph_file(str(json_path), json_format=True)
        assert json_dag.edges == text_dag.edges
        assert [json_dag.node_name(v) for v in range(4)] == [
            text_dag.node_name(v) for v in range(4)]


def _same_dag(got: Dag, want: Dag) -> None:
    assert got.node_count == want.node_count
    assert got.names == want.names
    assert got.edges == want.edges
    assert got.parents == want.parents
    assert got.children == want.children
    assert got._ranks == want._ranks


@st.composite
def json_graphs(draw: st.DrawFn):
    """A named dag as JSON document parts: the edges in a drawn order, and
    "nodes" in a drawn order or, drawn, left out, so that edges declare
    the names and isolated nodes drop out.  Small dags get drawn names,
    larger ones (128 nodes or more get ranks) shuffled `v<k>` names."""
    dag = draw(st.one_of(
        small_dags(),
        st.builds(_named_dag, st.integers(1, 300), st.integers(0, 3),
                  st.integers(0, 2 ** 32 - 1))))
    n = dag.node_count
    names = dag.names or draw(st.lists(
        st.from_regex(r"[A-Za-z0-9_]{1,3}", fullmatch=True),
        min_size=n, max_size=n, unique=True))
    edges = [[names[t], names[h]] for t, h in draw(st.permutations(dag.edges))]
    if draw(st.booleans()):
        nodes = draw(st.permutations(names))
        return {"nodes": nodes, "edges": edges}, nodes, edges
    return {"edges": edges}, list(dict.fromkeys(
        name for edge in edges for name in edge)), edges


class TestJsonLoadsTheSameDag:
    """A JSON document loads to the `Dag` that `build_dag` makes of its
    lists, and that `parse_graph` makes of its text rendering."""

    @settings(max_examples=150, deadline=None)
    @given(graph=json_graphs())
    def test_json_build_dag_and_text_agree(self, graph):
        doc, nodes, edges = graph
        want = build_dag(nodes, [tuple(edge) for edge in edges])
        _same_dag(parse_graph_json(json.dumps(doc)), want)
        lines = [f"node {name}" for name in doc.get("nodes", ())]
        lines += [f"{tail} -> {head}" for tail, head in edges]
        _same_dag(parse_graph("\n".join(lines)), want)

    def test_web7_fixture_loads_to_the_same_dag_as_its_text(self):
        _same_dag(load_graph_file(str(DATA_DIR / "web7.json"), json_format=True),
                  load_graph_file(str(DATA_DIR / "web7.txt")))


class TestLoadGraphFile:
    @pytest.mark.parametrize("path", [1.5, None, ["web7.txt"]],
                             ids=["float", "None", "list"])
    def test_paths_that_are_no_file_names_rejected(self, path):
        with pytest.raises(InvalidArgument, match="must be a file name"):
            load_graph_file(path)

    def test_an_open_file_descriptor_is_neither_read_nor_closed(self):
        read_end, write_end = os.pipe()
        os.write(write_end, b"a -> b\n")
        os.close(write_end)     # so a read meets the end, not a wait
        try:
            with pytest.raises(InvalidArgument):
                load_graph_file(read_end)
            assert os.read(read_end, 64) == b"a -> b\n"   # still open, unread
        finally:
            os.close(read_end)

    def test_path_like_and_bytes_names_load(self):
        path = DATA_DIR / "diamond4.txt"
        expected = load_graph_file(str(path)).edges
        assert load_graph_file(path).edges == expected
        assert load_graph_file(os.fsencode(path)).edges == expected

    def test_a_file_that_is_no_utf8_is_a_syntax_error(self, tmp_path):
        path = tmp_path / "latin1.txt"
        path.write_bytes(b"caf\xe9 -> b\n")
        with pytest.raises(GraphSyntaxError, match="utf-8"):
            load_graph_file(path)

    def test_a_missing_file_raises_os_error(self, tmp_path):
        with pytest.raises(OSError):
            load_graph_file(tmp_path / "absent.txt")


def _named_dag(node_count: int, degree: int, seed: int) -> Dag:
    """Random forward edges over a shuffled order, in random edge order,
    with shuffled names that include the keyword `node`."""
    rng = random.Random(seed)
    order = list(range(node_count))
    rng.shuffle(order)
    edges = {(order[i], order[j]) for i, j in (
        sorted(rng.sample(range(node_count), 2))
        for _ in range(degree * node_count if node_count > 1 else 0))}
    names = [f"v{k}" for k in range(node_count)]
    names[rng.randrange(node_count)] = "node"
    rng.shuffle(names)
    return Dag(node_count, rng.sample(sorted(edges), len(edges)), names=names)


class TestSerializeGraph:
    def test_round_trip_is_identity_on_fixture(self):
        dag = load_graph_file(str(DATA_DIR / "web7.txt"))
        again = parse_graph(serialize_graph(dag))
        assert again.edges == dag.edges
        assert [again.node_name(v) for v in range(again.node_count)] == [
            dag.node_name(v) for v in range(dag.node_count)]

    def test_isolated_nodes_survive_the_round_trip(self):
        dag = parse_graph("node only\n")
        again = parse_graph(serialize_graph(dag))
        assert again.node_count == 1
        assert again.node_name(0) == "only"

    @settings(max_examples=80, deadline=None)
    @given(dag=small_dags())
    def test_round_trip_is_identity_on_random_graphs(self, dag):
        again = parse_graph(serialize_graph(dag))
        assert again.node_count == dag.node_count
        assert again.edges == dag.edges

    @settings(max_examples=25, deadline=None)
    @given(dag=st.builds(_named_dag, st.integers(1, 3000), st.integers(0, 4),
                         st.integers(0, 2 ** 32 - 1)))
    def test_round_trip_keeps_names_ids_and_edge_order(self, dag):
        again = parse_graph(serialize_graph(dag))
        assert again.names == dag.names
        assert again.edges == dag.edges

    def test_empty_graph_serializes_to_empty_text(self):
        dag = parse_graph("")
        assert serialize_graph(dag) == ""

    def test_unwritable_names_rejected_at_write_time(self):
        with pytest.raises(GraphSyntaxError, match="'a b'") as caught:
            serialize_graph(build_dag(["a b", "c"], [("a b", "c")]))
        assert caught.value.line is None
        augmented = augment_dummies(parse_graph("a -> b\n")).graph
        with pytest.raises(GraphSyntaxError, match="prime"):
            serialize_graph(augmented)

    @pytest.mark.parametrize("make", [
        lambda: Dag(2, [(0, 1)], names=[1, 2]),
        lambda: build_dag([1, 2], [(1, 2)]),
    ])
    def test_names_that_are_no_strings_rejected_at_write_time(self, make):
        with pytest.raises(GraphSyntaxError, match="node name 1 is not a"):
            serialize_graph(make())


@pytest.fixture(scope="module")
def sparse_documents():
    """One 10,000-edge graph as text, as JSON, and as `Dag` arguments."""
    dag = random_sparse_dag(10_000, 7)
    names = [f"v{v}" for v in range(dag.node_count)]
    named = Dag(dag.node_count, dag.edges, names=names)
    doc = json.dumps({"nodes": names,
                      "edges": [[names[t], names[h]] for t, h in dag.edges]})
    return serialize_graph(named), doc, (dag.node_count, dag.edges, names)


def _collections_during(build) -> list[int]:
    """Generations of the collections that start while `build()` runs."""
    started: list[int] = []

    def hook(phase: str, info: dict) -> None:
        if phase == "start":
            started.append(info["generation"])

    gc.collect()
    gc.callbacks.append(hook)
    try:
        build()
    finally:
        gc.callbacks.remove(hook)
    return started


class TestCollectorPause:
    """Loads run with the cyclic collector paused and restore its state."""

    def test_no_collection_starts_inside_a_load(self, sparse_documents):
        text, doc, (node_count, edges, names) = sparse_documents
        assert gc.isenabled()
        # The hook does see the collections a comparable build sets off.
        assert _collections_during(lambda: [(i, [i]) for i in range(30_000)])
        assert _collections_during(lambda: parse_graph(text)) == []
        assert _collections_during(lambda: parse_graph_json(doc)) == []
        assert _collections_during(
            lambda: Dag(node_count, edges, names=names)) == []

    @pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
    @pytest.mark.parametrize("load,error", [
        (lambda: parse_graph("a -> b\nnode c\n"), None),
        (lambda: parse_graph_json('{"edges": [["a", "b"]]}'), None),
        (lambda: Dag(2, [(0, 1)], names=["a", "b"]), None),
        (lambda: parse_graph("a -> b\na => c\n"), GraphSyntaxError),
        (lambda: parse_graph("a -> a\n"), SelfLoop),
        (lambda: parse_graph("a -> b\na -> b\n"), DuplicateEdge),
        (lambda: parse_graph("a -> b\nb -> a\n"), CycleDetected),
        (lambda: parse_graph_json('{"nodes": ["a"], "edges": [["a", "b"]]}'),
         UnknownEndpoint),
        (lambda: parse_graph_json('{"edges": [["a", "b"]'), GraphSyntaxError),
        (lambda: parse_graph_json('{"nodes": ["a", "a"]}'), GraphSyntaxError),
        (lambda: Dag(2, [(0, 2)]), UnknownEndpoint),
        (lambda: Dag(2, [], names=["a", "a"]), ValueError),
    ], ids=["text", "json", "dag", "text-syntax", "text-self-loop",
            "text-duplicate-edge", "text-cycle", "json-unknown-endpoint",
            "json-bad-document", "json-repeated-name", "dag-unknown-endpoint",
            "dag-repeated-name"])
    def test_collector_state_is_restored(self, enabled, load, error):
        was_enabled = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            if error is None:
                load()
            else:
                with pytest.raises(error):
                    load()
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was_enabled else gc.disable)()
