"""Serialization round trips and remaining structural invariants."""

from __future__ import annotations

import json
import random

import pytest

from weylgpd import jsonio
from weylgpd.arrangement import Affine, Truncated, chamber_bfs, default_seed_chamber
from weylgpd.builtins import affine_a1_table, builtin_graph, builtin_table
from weylgpd.cartan import generate_real_roots
from weylgpd.cli import main
from weylgpd.errors import ParseError
from weylgpd.exactlin import vneg, vdot
from weylgpd.realization import realize

from _oracles import int_mat_mul, reflection_matrix


class TestTableJson:
    def test_roundtrip_spherical(self):
        table = builtin_table("a3")
        back = jsonio.table_from_json(jsonio.table_to_json(table))
        assert back == table

    def test_roundtrip_affine(self):
        table = affine_a1_table(4)
        data = jsonio.table_to_json(table)
        assert data["cone"] == {"affine": ["1", "1"]}
        back = jsonio.table_from_json(data)
        assert back.roots == table.roots and back.cone == table.cone

    def test_unknown_cone_is_refused(self):
        with pytest.raises(ParseError, match=r"^unknown cone spec 'conical'$"):
            jsonio.table_from_json({"rank": 1, "cone": "conical", "roots": [["1"], ["-1"]]})

    @pytest.mark.parametrize("name", ["b2", "f4", "aff-a1"])
    def test_a_repeated_root_is_read_once(self, name, tmp_path, capsys):
        """A root listed twice is one root: the table reads as the table
        without the repeat, and `weylgpd check` prints the same bytes."""
        data = jsonio.table_to_json(builtin_table(name))
        repeated = dict(data, roots=data["roots"] + data["roots"][1::3])
        assert jsonio.table_from_json(repeated) == jsonio.table_from_json(data)
        outputs = []
        for table in (data, repeated):
            path = tmp_path / f"{len(outputs)}.json"
            path.write_text(json.dumps(table))
            for argv in (["check", str(path)], ["--format", "json", "check", str(path)]):
                for prop in ("cryst", "additive"):
                    outputs.append((main(argv + ["--property", prop]), capsys.readouterr()))
        assert outputs[:4] == outputs[4:] and outputs[0][0] == 0 and all(out.err == "" for _, out in outputs)

    def test_truncated_cone(self):
        table = jsonio.table_from_json(
            {"rank": 2, "cone": {"truncated": 3}, "roots": [["1", "0"], ["-1", "0"], ["0", "1"], ["0", "-1"]]}
        )
        assert table.cone == Truncated(3)


class TestGraphJson:
    def test_explicit_roundtrip(self):
        from weylgpd.arrangement import extract_cartan_graph

        graph = extract_cartan_graph(builtin_table("b2")).graph
        data = jsonio.graph_to_json(graph)
        back = jsonio.graph_from_json(data)
        assert len(back.objects) == len(graph.objects)
        assert back.rank == graph.rank

    def test_lazy_truncation_flagged(self):
        data = jsonio.graph_to_json(builtin_graph("aff-a1"), depth=4)
        assert data.get("truncated") is True
        assert all(obj["cartan"] == [[2, -2], [-2, 2]] for obj in data["objects"])

    def test_lazy_graph_is_written_to_depth_8_by_default(self):
        graph = builtin_graph("aff-a1")
        data = jsonio.graph_to_json(graph)
        assert data == jsonio.graph_to_json(graph, depth=8) != jsonio.graph_to_json(graph, depth=7)
        assert len(data["objects"]) == 17

    def test_lazy_finite_not_flagged(self):
        data = jsonio.graph_to_json(builtin_graph("a2"), depth=8)
        assert "truncated" not in data
        assert len(data["objects"]) == 6


class TestRealizationJson:
    def test_certified_interior_listed(self):
        re = realize(builtin_graph("aff-a1"), depth=5)
        data = jsonio.realization_to_json(re)
        assert data["complete"] is False
        assert len(data["certified_interior"]) == len(re.certified)
        assert len(data["objects"]) == len(re.order)


class TestRemainingInvariants:
    def test_complete_real_roots_negation_closed(self):
        for name in ("a2", "b2", "g2", "a3", "b3"):
            graph = builtin_graph(name)
            rrs = generate_real_roots(graph, graph.base, 16)
            assert rrs.complete
            for obj, roots in rrs.roots.items():
                for v in roots:
                    assert tuple(-x for x in v) in roots

    def test_transition_composition_along_galleries(self):
        # Along any walk, composing the edge reflections reproduces the final
        # basis from the initial one exactly.
        rng = random.Random(3)
        re = realize(builtin_graph("a3"), depth=16)
        graph = re.graph
        for _ in range(50):
            cur = re.base
            word = []
            for _ in range(rng.randint(1, 9)):
                i = rng.randrange(3)
                word.append(i)
                cur = re.edges[(cur, i)]
            matrix = None
            walk = re.base
            for i in word:
                step = reflection_matrix(graph.matrix(walk), i)
                matrix = step if matrix is None else int_mat_mul(step, matrix)
                walk = re.edges[(walk, i)]
            # The composed word maps base coordinates to end coordinates of
            # every root exactly.
            for root in re.table.roots:
                start_coords = tuple(vdot(root, ray) for ray in re.chambers[re.base].rays)
                end_coords = tuple(vdot(root, ray) for ray in re.chambers[cur].rays)
                mapped = tuple(
                    sum(matrix[k][t] * start_coords[t] for t in range(3)) for k in range(3)
                )
                assert mapped == end_coords
