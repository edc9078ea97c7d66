"""The stacked tree-level build against the node-by-node build it replaced.

``cli._build_tree`` validates and canonicalizes each level as one stack per
vertex count.  ``_oracles.build_tree_per_node`` keeps the old loop, one
node and one row at a time; the two must give bitwise-equal node matrices,
equal canonicalization notes, and equal refusals (exit code and message).
"""

import json

import numpy as np
import pytest

from _oracles import build_tree_per_node
from credalkit import cli, credal
from credalkit.cli import main
from credalkit.credal import DEDUP_TOL, CredalSet
from credalkit.errors import CredalkitError, SizeGuardError, ValidationError
from credalkit.lp import SimplexStalledError
from credalkit.spaces import OutcomeSpace
from test_cli import RETYPES, TREE, edited, field_paths, valid_scenarios

NODE_KINDS = ("plain", "duplicate", "near-duplicate", "interior", "dirac", "tiny-negative")
MALFORMED = ("ragged", "mass-1.1", "weight-0.2", "abc", "empty")


def tree_doc(levels, n):
    n_paths = n ** len(levels)
    return {
        "format": 1,
        "spaces": {"step": [f"s{i}" for i in range(n)],
                   "paths": [f"p{i}" for i in range(n_paths)]},
        "trees": {"T": {"step_space": "step", "horizon": len(levels), "ambiguity": levels}},
        "variables": {"X": {"space": "paths", "values": [float(i % 7) for i in range(n_paths)]}},
        "command": {"op": "tree-sublinear", "tree": "T", "variable": "X"},
    }


def node(rng, n, k, kind):
    """``k`` rows on ``n`` outcomes; ``kind`` plants one feature in the last row."""
    rows = rng.dirichlet(np.ones(n), size=k)
    if kind == "duplicate" and k > 1:
        rows[-1] = rows[0]
    elif kind == "near-duplicate" and k > 1:
        rows[-1] = rows[0]
        hi, lo = np.argmax(rows[0]), np.argmin(rows[0])
        rows[-1, hi] -= 0.5 * DEDUP_TOL
        rows[-1, lo] += 0.5 * DEDUP_TOL
    elif kind == "interior" and k > 2:
        lam = rng.dirichlet(np.ones(k - 1))
        rows[-1] = lam @ rows[:-1]
    elif kind == "dirac":
        rows[-1] = np.eye(n)[rng.integers(n)]
    elif kind == "tiny-negative":
        rows[-1] = np.eye(n)[rng.integers(n)]
        rows[-1, (np.argmax(rows[-1]) + 1) % n] = -1e-13
    return rows.tolist()


def malformed(rng, n, kind):
    rows = node(rng, n, 3, "plain")
    if kind == "ragged":
        rows[1] = rows[1][:-1]
    elif kind == "mass-1.1":
        rows[1] = [1.1 * w for w in rows[1]]
    elif kind == "weight-0.2":
        rows[1] = [-0.2, 1.2] + [0.0] * (n - 2)
    elif kind == "abc":
        rows[1][0] = "abc"
    else:
        rows = []
    return rows


def random_levels(rng, n, horizon, ks=range(1, 7)):
    return [[node(rng, n, int(rng.choice(ks)), str(rng.choice(NODE_KINDS)))
             for _ in range(n**t)] for t in range(horizon)]


def outcome(doc, tol):
    """Node matrix bytes and notes of a parsed document, or its exit code and message."""
    try:
        sc = cli.parse_scenario(json.dumps(doc), tol)
    except CredalkitError as exc:
        if isinstance(exc, SizeGuardError):
            return 4, str(exc)
        return 2 if isinstance(exc, ValidationError) else 3, str(exc)
    levels = [[S.matrix.tobytes() for S in level] for tree in sc.trees.values()
              for level in tree.ambiguity]
    return levels, sc.canonicalization


def same_as_per_node(monkeypatch, doc, tol=1e-9):
    got = outcome(doc, tol)
    with monkeypatch.context() as m:
        m.setattr(cli, "_build_tree", build_tree_per_node)
        want = outcome(doc, tol)
    assert got == want
    return got


class TestLevelBuild:
    @pytest.mark.parametrize("n", range(2, 10))
    def test_seeded_levels(self, monkeypatch, n):
        rng = np.random.default_rng(1400 + n)
        horizon = {2: 4, 3: 3}.get(n, 2)
        notes = 0
        for tol in (1e-15, 1e-12, 1e-9, 1e-6):
            got = same_as_per_node(monkeypatch, tree_doc(random_levels(rng, n, horizon), n), tol)
            notes += len(got[1])
        assert notes > 0  # duplicates and interior rows were dropped somewhere

    def test_every_node_kind_and_size_in_one_level(self, monkeypatch):
        rng = np.random.default_rng(1401)
        for n, horizon in ((2, 7), (3, 5), (6, 3), (9, 3)):
            every = [node(rng, n, k, kind) for kind in NODE_KINDS for k in range(1, 7)]
            levels = random_levels(rng, n, horizon - 1)
            levels.append([every[i % len(every)] for i in range(n ** (horizon - 1))])
            for tol in (1e-15, 1e-9):
                same_as_per_node(monkeypatch, tree_doc(levels, n), tol)

    def test_level_spanning_blocks(self, monkeypatch):
        n, k = 9, 6
        assert 9**3 > 2**16 // (k * k * (n + 1))  # level 3 spans two blocks
        rng = np.random.default_rng(1402)
        levels = random_levels(rng, n, 4, ks=[k])
        got = same_as_per_node(monkeypatch, tree_doc(levels, n))
        assert len(got[0][3]) == 729

    def test_stack_of_many_blocks_matches_one_set_at_a_time(self):
        rng = np.random.default_rng(1403)
        for k, n in ((3, 3), (6, 9)):
            step = 2**16 // (k * k * (n + 1))
            P = [node(rng, n, k, str(rng.choice(NODE_KINDS))) for _ in range(step + 40)]
            space = OutcomeSpace(range(n))
            got = CredalSet._stack(space, np.array(P), 1e-9)
            want = [CredalSet.from_rows(space, rows, 1e-9) for rows in P]
            assert [S.matrix.tobytes() for S in got] == [S.matrix.tobytes() for S in want]
            assert sum(S.n_vertices < k for S in want) > 0

    def test_sets_whose_row_pairs_exceed_a_block(self, monkeypatch):
        n, k = 3, 130
        assert 2**16 // (k * k * (n + 1)) == 0  # each set is canonicalized alone
        rng = np.random.default_rng(1407)
        levels = [[node(rng, n, 3, "plain")], [node(rng, n, k, "duplicate") for _ in range(n)]]
        got = same_as_per_node(monkeypatch, tree_doc(levels, n))
        assert len(got[1]) == n  # interior rows and duplicates dropped at every node

    @pytest.mark.parametrize("kind", MALFORMED)
    def test_malformed_node_anywhere(self, monkeypatch, kind):
        rng = np.random.default_rng(1404)
        for n in (2, 3):
            levels = random_levels(rng, n, 3, ks=[1, 2, 3])
            width = len(levels[2])
            for pos in (0, width // 2, width - 1):
                doc = tree_doc(json.loads(json.dumps(levels)), n)
                doc["trees"]["T"]["ambiguity"][2][pos] = malformed(rng, n, kind)
                code, message = same_as_per_node(monkeypatch, doc)
                assert code == 2 and f"ambiguity[2][{pos}]" in message

    @pytest.mark.parametrize("first", MALFORMED)
    def test_earlier_malformed_node_is_the_one_named(self, monkeypatch, first):
        rng = np.random.default_rng(1405)
        levels = random_levels(rng, 3, 3, ks=[1, 2, 3])
        for later in MALFORMED:
            doc = tree_doc(json.loads(json.dumps(levels)), 3)
            doc["trees"]["T"]["ambiguity"][2][4] = malformed(rng, 3, first)
            doc["trees"]["T"]["ambiguity"][2][7] = malformed(rng, 3, later)
            code, message = same_as_per_node(monkeypatch, doc)
            assert code == 2 and "ambiguity[2][4]" in message

    def test_stall_before_malformed_node_exits_3(self, monkeypatch, tmp_path, capsys):
        def stall(*args, **kwargs):
            raise SimplexStalledError("forced stall")

        rng = np.random.default_rng(1406)
        levels = random_levels(rng, 3, 3, ks=[2])
        levels[2][2] = node(rng, 3, 4, "interior")
        monkeypatch.setattr(credal, "_nearest", stall)
        doc = tree_doc(levels, 3)
        for bad in (5, 1):  # after the node needing a membership decision, then before it
            doc["trees"]["T"]["ambiguity"][2][bad] = malformed(rng, 3, "mass-1.1")
            code, message = same_as_per_node(monkeypatch, doc)
            path = tmp_path / "doc.json"
            path.write_text(json.dumps(doc))
            assert main(["run", str(path), "--out", str(tmp_path / "r.json")]) == code
            assert message in capsys.readouterr().err
            if bad == 5:
                assert (code, message) == (3, "trees.T.ambiguity[2][2]: forced stall")
            else:
                assert code == 2 and "ambiguity[2][1]" in message

    def test_mutated_tree_documents(self, monkeypatch):
        for doc in (valid_scenarios()["tree-sublinear"], TREE):
            for field in field_paths(doc):
                if field[:1] == ("trees",):
                    for value in RETYPES:
                        same_as_per_node(monkeypatch, edited(doc, field, value))
