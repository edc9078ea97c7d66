"""The stacked builds of tree levels and credal kernel tables against the
per-node and per-entry builds they replaced.

``cli._build_tree`` validates and canonicalizes each level, and
``cli._build_kernel`` each credal kernel table, with one
``CredalSet._stack``: one stack per vertex count.
``_oracles.build_tree_per_node`` keeps the old tree loop, one node and one
row at a time, and ``_oracles.build_kernel_per_entry`` the old kernel loop,
one ``from_rows`` per outcome; each pair must give bitwise-equal set
matrices, equal canonicalization notes and warnings, and equal refusals
(exit code and message).
"""

import json

import numpy as np
import pytest

from _oracles import build_kernel_per_entry, build_tree_per_node, prove_nothing
from credalkit import cli, credal, risk
from credalkit.cli import main
from credalkit.credal import DEDUP_TOL, CredalSet
from credalkit.errors import CredalkitError, SizeGuardError, ValidationError
from credalkit.lp import SimplexStalledError
from credalkit.risk import ScenarioTree
from credalkit.spaces import OutcomeSpace
from test_cli import RETYPES, TREE, edited, field_paths, valid_scenarios
from test_credal import perfbench_gen
from test_risk import mixed_tree

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


def kernel_doc(entries, n):
    """A credal kernel with one vertex-row entry per outcome of ``U``, on ``n`` outcomes."""
    u = len(entries)
    return {
        "format": 1,
        "spaces": {"U": [f"u{i}" for i in range(u)], "V": [f"v{i}" for i in range(n)]},
        "kernels": {"K": {"u_space": "U", "v_space": "V", "credal": entries}},
        "variables": {"X": {"space": ["U", "V"], "values": [float(i % 7) for i in range(u * n)]}},
        "command": {"op": "conditional", "kernel": "K", "variable": "X"},
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


def entry_bytes(S):
    return S.matrix.tobytes() if isinstance(S, CredalSet) else (S.points.tobytes(),
                                                                S.costs.tobytes())


def outcome(doc, tol):
    """The bytes of each tree level's and kernel table's sets, and the notes and warnings
    of a parsed document, or its exit code and message."""
    try:
        sc = cli.parse_scenario(json.dumps(doc), tol)
    except CredalkitError as exc:
        if isinstance(exc, SizeGuardError):
            return 4, str(exc)
        return 2 if isinstance(exc, ValidationError) else 3, str(exc)
    tables = [level for tree in sc.trees.values() for level in tree.ambiguity]
    tables += [K.table for K in sc.kernels.values()]
    return [list(map(entry_bytes, table)) for table in tables], sc.canonicalization + sc.warnings


def same_as_per_node(monkeypatch, doc, tol=1e-9):
    """``doc`` parsed with the stacked builds and with the per-node and per-entry ones."""
    got = outcome(doc, tol)
    with monkeypatch.context() as m:
        m.setattr(cli, "_build_tree", build_tree_per_node)
        m.setattr(cli, "_build_kernel", build_kernel_per_entry)
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
        stacks = []
        for k, n in ((3, 3), (6, 9)):
            step = 2**16 // (k * k * (n + 1))
            P = [node(rng, n, k, str(rng.choice(NODE_KINDS))) for _ in range(step + 40)]
            stacks.append((n, np.array(P)))
        # row lists of mixed lengths: the 6-row lists alone span two blocks
        mixed = [node(rng, 9, int(rng.integers(1, 7)), str(rng.choice(NODE_KINDS)))
                 for _ in range(1200)]
        assert sum(len(rows) == 6 for rows in mixed) > 2**16 // (6 * 6 * 10)
        stacks.append((9, mixed))
        for n, P in stacks:
            space = OutcomeSpace(range(n))
            got = CredalSet._unstack(space, CredalSet._stack(space, P, 1e-9), len(P))
            want = [CredalSet.from_rows(space, rows, 1e-9) for rows in P]
            assert [S.matrix.tobytes() for S in got] == [S.matrix.tobytes() for S in want]
            assert sum(S.n_vertices < len(rows) for S, rows in zip(want, P)) > 0

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
        monkeypatch.setattr(credal, "_wolfe", stall)
        # the passes would settle the interior row before its membership decision could stall
        monkeypatch.setattr(credal, "_passes", prove_nothing)
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


    # (outcomes, field under the ambiguity, value) of a plain three-level tree, with the exit
    # code and message, or the notes, of each as the node-by-node build gave them
    LEVEL_EDITS = {
        "true-leaf": (3, (2, 4, 1, 0), True, "[2][4][1][0]: expected a finite number, got True"),
        "nan": (3, (2, 4, 1, 0), float("nan"), "[2][4][1][0]: expected a finite number, got nan"),
        "1e400": (3, (2, 4, 1, 0), 1e400, "[2][4][1][0]: expected a finite number, got inf"),
        "400-digit-int": (3, (2, 4, 1, 0), 10**400,
                          "[2][4][1][0]: expected a finite number, got " + "1" + "0" * 39 + "…"),
        "nested-leaf": (3, (2, 4, 1, 0), [0.5], "[2][4][1][0]: expected a finite number, got [0.5]"),
        "dict-row": (3, (2, 4, 1), {"a": 1}, "[2][4][1]: expected a list"),
        "string-node": (3, (2, 4), "abc", "[2][4]: expected a list"),
        "number-node": (3, (2, 4), 0.5, "[2][4]: expected a list"),
        "number-level": (3, (2,), 0.5, "[2]: expected a list"),
        "empty-node": (3, (2, 4), [], "[2][4]: a credal set needs at least one vertex"),
        "empty-row": (3, (2, 4, 1), [], "[2][4]: expected 3 weights, got 0"),
        "3-weight-row": (2, (2, 2, 1), [0.2, 0.3, 0.5], "[2][2]: expected 2 weights, got 3"),
        "negative-weight": (3, (2, 4, 1), [-0.2, 1.2, 0.0],
                            "[2][4]: negative probability weight -0.2 below tolerance"),
        "integer-weights": (3, (2, 4, 1), [0, 1, 0], []),
        "duplicate-row": (3, (2, 4), [[0.2, 0.3, 0.5], [0.6, 0.2, 0.2], [0.2, 0.3, 0.5]],
                          ["[2][4]: 1 redundant generator(s) dropped"]),
        "interior-row": (3, (2, 4), [[0.2, 0.3, 0.5], [0.6, 0.2, 0.2], [0.4, 0.25, 0.35]],
                         ["[2][4]: 1 redundant generator(s) dropped"]),
    }

    @pytest.mark.parametrize("case", LEVEL_EDITS)
    def test_level_refuses_and_notes_as_node_by_node(self, monkeypatch, case):
        n, field, value, want = self.LEVEL_EDITS[case]
        rng = np.random.default_rng(1408)
        levels = [[node(rng, n, 3, "plain") for _ in range(n**t)] for t in range(3)]
        doc = edited(tree_doc(levels, n), ("trees", "T", "ambiguity", *field), value)
        got = same_as_per_node(monkeypatch, doc)
        if isinstance(want, list):
            assert got[1] == [f"trees.T.ambiguity{note}" for note in want]
        else:
            assert got == (2, f"trees.T.ambiguity{want}")

    def test_plain_levels_build_no_set(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a plain level builds no per-node credal set")

        rng = np.random.default_rng(1409)
        n = 3
        doc = tree_doc([[node(rng, n, 3, "plain") for _ in range(n**t)] for t in range(5)], n)
        with monkeypatch.context() as m:
            m.setattr(CredalSet, "_set", refuse)
            m.setattr(risk, "_level_groups", refuse)
            tree = cli.parse_scenario(json.dumps(doc)).trees["T"]
        for t, groups in enumerate(tree._groups):
            [(nodes, V)] = groups
            assert np.array_equal(nodes, np.arange(n**t)) and V.shape == (n**t, 3, n)
        with monkeypatch.context() as m:
            m.setattr(cli, "_build_tree", build_tree_per_node)
            want = cli.parse_scenario(json.dumps(doc)).trees["T"]
        assert [[S.matrix.tobytes() for S in level] for level in tree.ambiguity] == [
            [S.matrix.tobytes() for S in level] for level in want.ambiguity]
        assert tree.ambiguity is tree.ambiguity  # built once


class TestTreeShape:
    """A tree's horizon, size and level widths are refused before any node is read."""

    def run_refused(self, monkeypatch, tmp_path, capsys, doc):
        def refuse(*args, **kwargs):
            raise AssertionError("no node is built before the tree's counts are checked")

        monkeypatch.setattr(CredalSet, "_stack", refuse)
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        assert main(["run", str(path), "--out", str(tmp_path / "r.json")]) == 2
        return capsys.readouterr().err

    def test_surplus_level(self, monkeypatch, tmp_path, capsys):
        rng = np.random.default_rng(1420)
        doc = tree_doc(random_levels(rng, 3, 2), 3)
        doc["trees"]["T"]["horizon"] = 1
        err = self.run_refused(monkeypatch, tmp_path, capsys, doc)
        assert "trees.T: need ambiguity for 1 levels, got 2" in err

    def test_short_level(self, monkeypatch, tmp_path, capsys):
        rng = np.random.default_rng(1421)
        doc = tree_doc(random_levels(rng, 3, 3), 3)
        del doc["trees"]["T"]["ambiguity"][1][2]
        err = self.run_refused(monkeypatch, tmp_path, capsys, doc)
        assert "trees.T: level 1 needs 3 ambiguity sets, got 2" in err

    def test_count_named_before_malformed_node(self, monkeypatch, tmp_path, capsys):
        rng = np.random.default_rng(1422)
        doc = tree_doc(random_levels(rng, 3, 2), 3)
        doc["trees"]["T"]["horizon"] = 1
        doc["trees"]["T"]["ambiguity"][0][0] = malformed(rng, 3, "abc")
        err = self.run_refused(monkeypatch, tmp_path, capsys, doc)
        assert "trees.T: need ambiguity for 1 levels, got 2" in err


class TestKernelBuild:
    @pytest.mark.parametrize("n", (2, 3, 6, 9))
    def test_every_node_kind_and_size_in_one_table(self, monkeypatch, n):
        rng = np.random.default_rng(1410 + n)
        entries = [node(rng, n, k, kind) for kind in NODE_KINDS for k in range(1, 7)]
        notes = 0
        for tol in (1e-15, 1e-12, 1e-9, 1e-6):
            got = same_as_per_node(monkeypatch, kernel_doc(entries, n), tol)
            notes += len(got[1])
        assert notes > 0  # duplicates and interior rows were dropped somewhere

    @pytest.mark.parametrize("kind", MALFORMED)
    def test_malformed_entry_anywhere(self, monkeypatch, kind):
        rng = np.random.default_rng(1411)
        for n in (2, 3):
            entries = [node(rng, n, int(rng.integers(1, 4)), "plain") for _ in range(9)]
            for pos in (0, 4, 8):
                doc = kernel_doc(json.loads(json.dumps(entries)), n)
                doc["kernels"]["K"]["credal"][pos] = malformed(rng, n, kind)
                code, message = same_as_per_node(monkeypatch, doc)
                assert code == 2 and f"credal[{pos}]" in message

    @pytest.mark.parametrize("first", MALFORMED)
    def test_earlier_malformed_entry_is_the_one_named(self, monkeypatch, first):
        rng = np.random.default_rng(1412)
        entries = [node(rng, 3, int(rng.integers(1, 4)), "plain") for _ in range(9)]
        for later in MALFORMED:
            doc = kernel_doc(json.loads(json.dumps(entries)), 3)
            doc["kernels"]["K"]["credal"][4] = malformed(rng, 3, first)
            doc["kernels"]["K"]["credal"][7] = malformed(rng, 3, later)
            code, message = same_as_per_node(monkeypatch, doc)
            assert code == 2 and "credal[4]" in message

    def test_stall_before_malformed_entry_exits_3(self, monkeypatch, tmp_path, capsys):
        def stall(*args, **kwargs):
            raise SimplexStalledError("forced stall")

        rng = np.random.default_rng(1413)
        entries = [node(rng, 3, 2, "plain") for _ in range(9)]
        entries[2] = node(rng, 3, 4, "interior")
        monkeypatch.setattr(credal, "_wolfe", stall)
        # the passes would settle the interior row before its membership decision could stall
        monkeypatch.setattr(credal, "_passes", prove_nothing)
        doc = kernel_doc(entries, 3)
        for bad in (5, 1):  # after the entry needing a membership decision, then before it
            doc["kernels"]["K"]["credal"][bad] = malformed(rng, 3, "mass-1.1")
            code, message = same_as_per_node(monkeypatch, doc)
            path = tmp_path / "doc.json"
            path.write_text(json.dumps(doc))
            assert main(["run", str(path), "--out", str(tmp_path / "r.json")]) == code
            assert message in capsys.readouterr().err
            if bad == 5:
                assert (code, message) == (3, "kernels.K.credal[2]: forced stall")
            else:
                assert code == 2 and "credal[1]" in message

    def test_mutated_kernel_documents(self, monkeypatch):
        docs = [doc for doc in valid_scenarios().values() if "kernels" in doc]
        assert {kind for doc in docs for K in doc["kernels"].values()
                for kind in ("credal", "penalty") if kind in K} == {"credal", "penalty"}
        for doc in docs:
            for field in field_paths(doc):
                if field[:1] == ("kernels",):
                    for value in RETYPES:
                        same_as_per_node(monkeypatch, edited(doc, field, value))


class TestStackedRefusal:
    """Every refusal of the stacked read is an entry's, which the entry-by-entry re-read
    raises; a refusal that no entry repeats stops the parse with an AssertionError naming
    the table's first path, instead of building the table some other way."""

    @pytest.mark.parametrize("kind", ["kernel", "tree"])
    def test_refusal_no_entry_repeats(self, monkeypatch, kind):
        rng = np.random.default_rng(1430)
        if kind == "kernel":
            doc = kernel_doc([node(rng, 3, 3, "plain") for _ in range(4)], 3)
            path = "kernels.K.credal"
        else:
            doc, path = tree_doc(random_levels(rng, 3, 2), 3), "trees.T.ambiguity[0]"
        cli.parse_scenario(json.dumps(doc))  # the document reads

        def refuse(*args, **kwargs):
            raise ValidationError("a refusal no entry repeats")

        monkeypatch.setattr(CredalSet, "_stack", refuse)
        with pytest.raises(AssertionError) as exc:
            cli.parse_scenario(json.dumps(doc))
        assert str(exc.value) == f"{path}: the stacked read refused entries that each read"


def check_level_stacks(tree):
    """Each level's stacks partition its nodes.  Every stack's nodes are a sorted integer index
    array, except ``(slice(None), V)`` with one matrix on a level that shares one set; every
    matrix is read-only and is its node's set matrix."""
    for groups, level in zip(tree._groups, tree.ambiguity, strict=True):
        width, covered = len(level), []
        for nodes, V in groups:
            assert not V.flags.writeable
            if isinstance(nodes, slice):
                assert nodes == slice(None) and len(groups) == 1 and V.shape[0] == 1
                assert all(S is level[0] for S in level)
                nodes, V = np.arange(width), np.broadcast_to(V, (width, *V.shape[1:]))
            else:
                assert nodes.dtype.kind == "i" and nodes.ndim == 1 and np.all(np.diff(nodes) > 0)
            assert [M.tobytes() for M in V] == [level[i].matrix.tobytes() for i in nodes.tolist()]
            covered.append(nodes)
        assert np.array_equal(np.sort(np.concatenate(covered)), np.arange(width))


class TestOneStackForm:
    """Both tree constructors emit level stacks of one form: sorted node index arrays, and
    ``slice(None)`` only for the one-row stack of a level that shares one set."""

    def test_desk_cli_tree_documents(self):
        trees = 0
        for doc in (op.doc for cycle in perfbench_gen().desk_cli(1, 24) for op in cycle
                    if "trees" in op.doc):
            try:
                sc = cli.parse_scenario(json.dumps(doc))
            except CredalkitError:
                continue
            for tree in sc.trees.values():
                check_level_stacks(tree)
                trees += 1
        assert trees >= 100

    def test_mixed_count_and_generator_dropping_documents(self):
        rng = np.random.default_rng(1401)
        for n, horizon in ((2, 7), (3, 5), (6, 3), (9, 3)):
            every = [node(rng, n, k, kind) for kind in NODE_KINDS for k in range(1, 7)]
            levels = random_levels(rng, n, horizon - 1)
            levels.append([every[i % len(every)] for i in range(n ** (horizon - 1))])
            for tol in (1e-15, 1e-9):
                sc = cli.parse_scenario(json.dumps(tree_doc(levels, n)), tol)
                assert sc.canonicalization  # generators were dropped
                check_level_stacks(sc.trees["T"])

    def test_constructed_trees(self):
        rng = np.random.default_rng(1431)
        step = OutcomeSpace(["a", "b", "c"])
        shared = CredalSet.from_rows(step, rng.dirichlet(np.ones(3), size=3))
        other = CredalSet.from_rows(step, rng.dirichlet(np.ones(3), size=2))
        for tree in (mixed_tree(rng, step, 4), ScenarioTree.uniform(step, 4, shared),
                     ScenarioTree(step, 2, [[shared], [shared, other, shared]])):
            check_level_stacks(tree)
