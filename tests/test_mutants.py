"""Each second-route check fails on the mutants recorded against it.

A mutant is a wrapper around one function of the package, or a copy of
that function with one piece of its source changed, put in place with
monkeypatch.  Each test runs its check on the package as it is, where
it must pass, and then under the mutant, where it must fail: an assert
raises AssertionError, and pytest.raises that sees no exception fails
the test.  Each check runs at the smallest n that catches its
mutant.
"""

import inspect
import textwrap

import pytest

import test_cli
import test_conflicts
import test_order_enum
import test_package
from eventstruct import BoolMatrix, cli, conflicts, es_enum, order_enum, relations
from test_es_enum import _assert_listings_certified


def _wrapped(monkeypatch, owner, name, edit):
    """Put in place owner.name with edit applied to each of its results."""
    function = getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *args, **kwargs: edit(function(*args, **kwargs)))


def _edited(monkeypatch, owner, name, old, new):
    """Put in place a copy of owner.name whose source reads new where it read old.

    The copy's globals are its module's, so it sees every other patch.
    """
    function = getattr(owner, name)
    source = textwrap.dedent(inspect.getsource(function))
    assert source.count(old) == 1, f"{name} does not read {old!r} exactly once"
    code = compile(source.replace(old, new), inspect.getsourcefile(function), "exec")
    made: dict = {}
    exec(code, function.__globals__, made)
    monkeypatch.setattr(owner, name, made[name])


def _check_int_by_isinstance(monkeypatch):
    """relations._check_int that takes a bool for an int, bound where each caller imported it."""
    _edited(
        monkeypatch, relations, "_check_int", "type(value) is not int", "not isinstance(value, int)"
    )
    for module in (es_enum, order_enum):
        monkeypatch.setattr(module, "_check_int", relations._check_int)


def _assert_bool_matrix_contract():
    test_package._assert_record_contract(BoolMatrix, *test_package.RECORDS[BoolMatrix])


# mutant -> (put it in place, the check that must catch it); each takes a monkeypatch.
MUTANTS = {
    # The certificate of every listing, against conflicts._grow and its callers.
    "certificate-dropped-conflict": (  # the last of each list of two or more
        lambda mp: _wrapped(
            mp, conflicts, "_conflicts_packed", lambda c: c[:-1] if len(c) > 1 else c
        ),
        lambda mp: _assert_listings_certified(2),
    ),
    "certificate-duplicated-conflict": (
        lambda mp: _wrapped(mp, conflicts, "_conflicts_packed", lambda confs: confs + confs[-1:]),
        lambda mp: _assert_listings_certified(0),
    ),
    "certificate-one-sided-pair": (  # (j, m) left out for the first j of each Y
        lambda mp: _edited(mp, conflicts, "_grow", "for j in bits(y):", "for j in bits(y)[1:]:"),
        lambda mp: _assert_listings_certified(2),
    ),
    "certificate-dropped-y": (  # the last image of each base
        lambda mp: _edited(
            mp, conflicts, "_grow", "list(unique(_images(base, rows)))",
            "list(unique(_images(base, rows)))[:-1]",
        ),
        lambda mp: _assert_listings_certified(2),
    ),
    "certificate-wrong-pivot-base": (  # the first successor's row left out
        lambda mp: _edited(mp, conflicts, "_grow", "for j in succ:", "for j in succ[1:]:"),
        lambda mp: _assert_listings_certified(2),
    ),
    # The pair-set tests, against allowed_conflicts' last step on pair sets.
    "pair-table-before-the-loop": (
        lambda mp: _edited(
            mp, conflicts, "_unpack_extensions", "table = None", "table = _pair_table(ids)"
        ),
        test_conflicts.test_posets_with_a_maximum_have_only_the_empty_conflict,
    ),
    "empty-y-emitted-last": (
        lambda mp: _edited(
            mp, conflicts, "_unpack_extensions", "out += [pairs | join for join in joins]",
            "out[-1:] = [*[pairs | join for join in joins], pairs]",
        ),
        lambda mp: test_conflicts._assert_lists_equal_the_packed_route(2),
    ),
    "y-times-m-dropped": (
        lambda mp: _edited(
            mp, conflicts, "_unpack_extensions",
            "table[m][y].union(*[table[j][mbit] for j in bits(y)])", "table[m][y]",
        ),
        lambda mp: test_conflicts.test_generate_conflicts_antichain(),
    ),
    # The relabeling of the count stream, against conflicts._relabeled_children.
    "relabel-new-event-last": (
        lambda mp: _edited(
            mp, conflicts, "_relabeled_children",
            "tuple(sorted(range(k + 1), key=c.__getitem__, reverse=True))",
            "(*sorted(range(k), key=c.__getitem__, reverse=True), k)",
        ),
        lambda mp: test_conflicts._assert_stream_relabels_as_sigma(2),
    ),
    "relabel-stem-kept": (  # the first child's stem serves every later child
        lambda mp: _edited(
            mp, conflicts, "_relabeled_children", "if c[:k] == stem:", "if stem is not None:"
        ),
        lambda mp: test_conflicts._assert_stream_relabels_as_sigma(2),
    ),
    # The conflict-text memo of enumerate, against relations.LazyTable and cli._emit.
    "memo-one-past-its-bound": (
        lambda mp: _edited(
            mp, relations.LazyTable, "__missing__", "len(self) >= TABLE_ENTRIES",
            "len(self) > TABLE_ENTRIES",
        ),
        lambda mp: test_cli.test_conflict_memo_is_exact_and_bounded("jsonl", False, mp),
    ),
    "memo-entry-never-stored": (
        lambda mp: _edited(
            mp, relations.LazyTable, "__missing__", "value = self[key] = self.make(key)",
            "value = self.make(key)",
        ),
        test_cli.test_each_distinct_conflict_is_formatted_once,
    ),
    "memo-text-joined-afresh": (
        lambda mp: _edited(
            mp, cli, "_emit", "conf_texts[conf] + tail", "conf_texts.make(conf) + tail"
        ),
        test_cli.test_each_distinct_conflict_is_formatted_once,
    ),
    # The record contract, against relations._Record.
    "record-equal-across-classes": (
        lambda mp: _edited(
            mp, relations._Record, "__eq__", "other.__class__ is self.__class__",
            "isinstance(other, _Record)",
        ),
        lambda mp: _assert_bool_matrix_contract(),
    ),
    "record-field-assigned": (
        lambda mp: _edited(
            mp, relations._Record, "__setattr__",
            'raise AttributeError(f"cannot assign to field {name!r}")',
            "object.__setattr__(self, name, value)",
        ),
        lambda mp: _assert_bool_matrix_contract(),
    ),
    # The bounds of the counts, against cli.main's one check and relations._check_int.
    "bounds-max-n-unchecked": (
        lambda mp: _edited(
            mp, cli, "main", '(("n", 0), ("max_n", 0), ("workers", 1))', '(("n", 0), ("workers", 1))'
        ),
        lambda mp: test_cli._assert_one_usage_error(
            ["oeis", "A284276", "--max-n", "-1"], "--max-n must be >= 0"
        ),
    ),
    "bounds-bool-taken-for-an-int": (
        _check_int_by_isinstance,
        lambda mp: test_order_enum.test_negative_n_is_refused(),
    ),
}


@pytest.mark.parametrize("mutant", list(MUTANTS))
def test_the_check_catches_the_mutant(mutant, monkeypatch):
    mutate, check = MUTANTS[mutant]
    with monkeypatch.context() as mp:
        check(mp)
    with monkeypatch.context() as mp:
        mutate(mp)
        with pytest.raises((AssertionError, pytest.fail.Exception)):
            check(mp)
