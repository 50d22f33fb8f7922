"""Rules the library source keeps."""

import ast
import importlib
import re
from pathlib import Path

import growthlab

SOURCES = sorted(Path(growthlab.__file__).parent.glob("*.py"))


def test_src_has_no_assert():
    # invariants raise InternalCheckError, which `python -O` does not strip
    assert SOURCES
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{n.lineno}" for n in ast.walk(tree) if isinstance(n, ast.Assert)]
    assert found == []


def test_src_reads_no_private_argparse_name():
    # argparse's private names (`argparse._StoreAction`, a parser's `_actions`)
    # may change in any Python release; the CLI reads its own grammar instead
    import argparse

    parser = argparse.ArgumentParser()
    private = {name for name in [*dir(parser), *vars(parser)] if name.startswith("_") and not name.endswith("__")}
    assert {"_actions", "_subparsers", "_option_string_actions"} <= private
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                names = [node.attr] if node.attr in private or getattr(node.value, "id", None) == "argparse" else []
            elif isinstance(node, ast.ImportFrom) and node.module == "argparse":
                names = [alias.name for alias in node.names]
            else:
                continue
            found += [f"{path.name}:{node.lineno}:{name}" for name in names if name.startswith("_")]
    assert found == []


def test_every_private_function_is_used_elsewhere():
    # a module-level _helper named nowhere in src/ outside its own body is
    # dead code, or kept only for the tests (whose referees live in tests/)
    defined = {}
    named = set()
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for top in tree.body:
            owner = getattr(top, "name", None)
            if isinstance(top, ast.FunctionDef) and owner.startswith("_") and not owner.endswith("__"):
                defined[owner] = path.name
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                elif isinstance(node, ast.alias):
                    name = node.name
                else:
                    continue
                if name != owner:
                    named.add(name)
    assert defined
    assert sorted(f"{path}:{name}" for name, path in defined.items() if name not in named) == []


def test_verify_has_one_except_handler():
    # a route that refuses or breaks an invariant fails its checks by name
    # through `verify._oracle_value`, the one place verify catches anything
    path = Path(growthlab.__file__).parent / "verify.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    handlers = [
        getattr(top, "name", "<module>")
        for top in tree.body
        for node in ast.walk(top)
        if isinstance(node, ast.ExceptHandler)
    ]
    assert handlers == ["_oracle_value"]


def test_every_cached_property_returns_a_tuple():
    # a Record is frozen and compares by its fields: what a cached_property
    # hangs on it must be as immutable as they are, never a cache that grows
    found = {}
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and any(
                getattr(d, "id", getattr(d, "attr", None)) == "cached_property" for d in node.decorator_list
            ):
                returns = node.returns.value if isinstance(node.returns, ast.Subscript) else node.returns
                found[f"{path.name}:{node.name}"] = getattr(returns, "id", None) == "tuple"
    assert {"growth.py:bases", "growth.py:_slots"} <= set(found)
    assert sorted(name for name, is_tuple in found.items() if not is_tuple) == []


def test_every_class_is_a_record_an_enum_or_an_error():
    # one value base: a class of its own hand-rolls == and hash, or lets a
    # cached value be changed or cut; the exceptions are Record itself, the
    # singleton _Infinity and _Tables, one verify run's memo
    from enum import Enum

    from growthlab.record import Record

    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for name in (node.name for node in tree.body if isinstance(node, ast.ClassDef)):
            cls = getattr(importlib.import_module(f"growthlab.{path.stem}"), name)
            if not {Record, Enum, Exception}.intersection(cls.__mro__[1:]):
                found.append(name)
    assert sorted(found) == ["Record", "_Infinity", "_Tables"]


def test_every_memo_of_tables_is_named_in_its_memo_tuple():
    # the tests empty the process memos through `tables._MEMOS`; a memo (a
    # module-level dict that starts empty) missing from it would outlive them
    from growthlab import tables

    path = Path(tables.__file__)
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    memos = [
        (node.target if isinstance(node, ast.AnnAssign) else node.targets[0]).id
        for node in tree.body
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and isinstance(node.value, ast.Dict) and not node.value.keys
    ]
    assert [id(getattr(tables, name)) for name in memos] == list(map(id, tables._MEMOS))
    assert all(type(memo) is dict for memo in tables._MEMOS)


def test_every_unchecked_substitution_follows_a_table_check():
    # `linalg._substitute` trusts its table, so every caller must first make
    # it a simple table, checked when built: a `CharTable` (`_check_compatible`)
    # or the oracle's brute-force rows (`_oracle_rows`)
    callers = {}
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef):
                called = {
                    getattr(call.func, "id", getattr(call.func, "attr", None))
                    for call in ast.walk(node)
                    if isinstance(call, ast.Call)
                }
                if "_substitute" in called:
                    callers[f"{path.name}:{node.name}"] = bool({"_check_compatible", "_oracle_rows"} & called)
    assert {"fusion.py:fusion_matrix", "fusion.py:spectral_check", "oracle.py:_decomposition"} <= set(callers)
    assert sorted(name for name, checked in callers.items() if not checked) == []


def test_the_fraction_matrix_tier_stays_in_the_tests():
    # the library multiplies, eliminates and solves on int rows; the Fraction
    # product, power, inverse and kernel are referees in tests/linalg_reference.py,
    # so nothing in src/ defines or names them
    tier = {"inverse", "kernel_and_rank", "mat_mul", "mat_pow"}
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.Name, ast.Attribute, ast.alias, ast.FunctionDef)):
                name = getattr(node, "id", None) or getattr(node, "attr", None) or node.name
                if name in tier:
                    found.append(f"{path.name}:{node.lineno}:{name}")
    assert found == []


def test_only_from_partners_makes_an_unchecked_diagram():
    # the constructor checks every diagram; _from_partners alone skips it,
    # for arrays that enumeration, products and flips keep valid
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for top in tree.body:
            for node in ast.walk(top):
                if (
                    isinstance(node, ast.Call)
                    and getattr(node.func, "attr", None) == "__new__"
                    and getattr(node.func.value, "id", None) == "object"
                    and [getattr(arg, "id", None) for arg in node.args[:1]] == ["Diagram"]
                ):
                    found.append(f"{path.name}:{getattr(top, 'name', '<module>')}")
    assert found == ["diagrams.py:_from_partners"]


# each referee in tests/, and the library routines it referees
REFEREED = {
    "glue_reference.py": {
        "_glue", "_partner_arrays", "_half_arrays", "_flip_partners", "_checked_partners"
    },
    "linalg_reference.py": {
        "_substitute", "_forward", "_reduce", "_solve", "_decomposition", "_prefix_ranks",
        "int_mul",
    },
    "radical_reference.py": {"_module_rows", "_oracle_rows", "_prefix_ranks", "_reduce"},
    "series_reference.py": {
        "_growth_series", "_simple_inverse_column", "_length_column", "_inverse_column", "_cell_columns"
    },
    "riordan_reference.py": {"_inverse_column"},
    # the printed tables and their errata, against the projective table and its labels
    "printed_reference.py": {"projective_table", "rank_labels"},
}


def test_referees_stay_independent_of_what_they_referee():
    # a referee that imports the routine it checks agrees with every bug in it
    tests = Path(__file__).parent
    assert sorted(path.name for path in tests.glob("*_reference.py")) == sorted(REFEREED)
    # a routine that has left src/ is imported by no one, so the rule would check nothing for it
    defined = set()
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        defined.update(node.name for node in tree.body if isinstance(node, ast.FunctionDef))
    assert sorted(set().union(*REFEREED.values()) - defined) == []
    found = []
    for name, routines in REFEREED.items():
        tree = ast.parse((tests / name).read_text(encoding="utf-8"), filename=name)
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                used = [alias.name.rpartition(".")[2] for alias in node.names]
            elif isinstance(node, ast.Attribute):
                used = [node.attr]
            else:
                continue
            found += [f"{name}:{node.lineno}:{routine}" for routine in used if routine in routines]
    assert found == []


def _perfbench_constant(filename: str, name: str):
    """The literal assigned to name at the top of perfbench/filename, read
    without importing perfbench; one assignment, or the test fails."""
    path = Path(__file__).parent.parent / "perfbench" / filename
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    values = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == [name]
    ]
    assert len(values) == 1
    return values[0]


def test_the_oracle_caches_the_benchmark_clears_are_lru_caches():
    # before every pass, perfbench reads `.cache_info()` of each name in
    # layertrace.ORACLE_CACHED
    from growthlab import oracle

    names = _perfbench_constant("layertrace.py", "ORACLE_CACHED")
    assert names
    assert [name for name in names if not hasattr(getattr(oracle, name, None), "cache_info")] == []


def test_every_other_oracle_cache_is_hit_by_a_verify_run(monkeypatch):
    # a cache that a full verify run never hits holds memory and does no
    # work; the names perfbench reads stay caches whatever their traffic
    from growthlab import oracle, verify

    kept = _perfbench_constant("layertrace.py", "ORACLE_CACHED")
    caches = {
        name: value
        for name, value in vars(oracle).items()
        if hasattr(value, "cache_info") and value.__module__ == oracle.__name__
    }
    for cache in caches.values():
        cache.cache_clear()
    monkeypatch.delenv("GROWTHLAB_MAX_M", raising=False)
    assert all(r.ok for r in verify.run_suite("all"))
    unhit = [name for name, cache in caches.items() if name not in kept and cache.cache_info().hits == 0]
    assert unhit == [] and set(caches) - set(kept)


def test_verify_makes_the_check_count_the_benchmark_expects(monkeypatch):
    # perfbench refuses a verify report without exactly VERIFY_CHECKS checks;
    # read the constant without importing perfbench, so a changed count fails here first
    from growthlab import verify

    count = _perfbench_constant("workloads.py", "VERIFY_CHECKS")
    monkeypatch.delenv("GROWTHLAB_MAX_M", raising=False)
    assert len(verify.run_suite("all")) == count


def test_readme_lists_the_public_names():
    # README's "Public names" section states the public surface, one bullet
    # per module ("- tables: `CharTable`, ..."); an export cannot appear or
    # vanish without it
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Public names\n", 1)[1].split("\n## ", 1)[0]
    listed = []
    for bullet in section.split("\n- ")[1:]:
        module, _, names = bullet.partition(":")
        names = re.findall(r"`(\w+)`", names)
        defined = vars(importlib.import_module(f"growthlab.{module}"))
        assert [name for name in names if name not in defined] == [], module
        listed += names
    assert sorted(growthlab.__all__) == sorted(listed)
    assert len(listed) == len(set(listed))


def test_every_public_name_is_called_exported_or_read_by_perfbench():
    # a public function, class or method that nothing in src/ names, that the
    # package does not export and that perfbench does not read is a second
    # route to an answer the library reaches another way; a public module-level
    # constant that nothing in src/ reads is a fixture, which belongs in tests/
    kept = set(growthlab.__all__) | set(_perfbench_constant("layertrace.py", "ORACLE_CACHED"))
    kept |= {f"{cls}.{method}" for _, cls, method in _perfbench_constant("layertrace.py", "_METHODS")}
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path)) for path in SOURCES}
    defined = []  # (file, qualified name, name, its node)
    for filename, tree in trees.items():
        for top in tree.body:
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)) and not top.name.startswith("_"):
                defined.append((filename, top.name, top.name, top))
            if isinstance(top, (ast.Assign, ast.AnnAssign)):
                targets = top.targets if isinstance(top, ast.Assign) else [top.target]
                defined += [
                    (filename, node.id, node.id, top)
                    for target in targets
                    for node in ast.walk(target)
                    if isinstance(node, ast.Name) and not node.id.startswith("_")
                ]
            if isinstance(top, ast.ClassDef) and not top.name.startswith("_") and top.name not in kept:
                defined += [
                    (filename, f"{top.name}.{node.name}", node.name, node)
                    for node in top.body
                    if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
                ]

    def names(node):
        for child in ast.walk(node):
            if isinstance(child, ast.Name):
                yield child.id
            elif isinstance(child, ast.Attribute):
                yield child.attr
            elif isinstance(child, ast.alias):
                yield child.name

    counts = {}
    for tree in trees.values():
        for name in names(tree):
            counts[name] = counts.get(name, 0) + 1
    assert defined
    unused = [
        f"{filename}:{qualified}"
        for filename, qualified, name, node in defined
        if qualified not in kept and counts.get(name, 0) == sum(1 for own in names(node) if own == name)
    ]
    assert unused == []


# the rules that stay with their owners (README, "Values, exactness and threads"): the int
# rule itself, a Diagram's block points and its "need at least one strand", the enumeration
# cap, and the CLI's own words for --n and --max-m
OWN_INT_RULES = {
    "diagrams.py:_check_int", "diagrams.py:_checked_partners", "diagrams.py:_check_enumerable",
    "cli.py:_parse_range", "cli.py:_cmd_verify",
}


def _called(node, name: str) -> bool:
    return isinstance(node, ast.Call) and getattr(node.func, "id", None) == name


def _int_rule_copies(sources) -> set[str]:
    """file:function for each function that compares `type(...) is not int`, or raises
    an InputError under an `if` that bounds a value from below (`x < 1`, `x <= 0`)."""
    found = set()
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            for node in ast.walk(fn):
                if isinstance(node, ast.Compare) and isinstance(node.ops[0], ast.IsNot):
                    if _called(node.left, "type") and getattr(node.comparators[0], "id", None) == "int":
                        found.add(f"{path.name}:{fn.name}")
                if isinstance(node, ast.If) and any(
                    isinstance(raised, ast.Raise) and _called(raised.exc, "InputError") for raised in node.body
                ):
                    for compare in ast.walk(node.test):
                        if isinstance(compare, ast.Compare) and any(
                            isinstance(op, (ast.Lt, ast.LtE)) and isinstance(right, ast.Constant)
                            for op, right in zip(compare.ops, compare.comparators)
                        ):
                            found.add(f"{path.name}:{fn.name}")
    return found


def test_each_argument_rule_is_written_once():
    # m, n, a count or a label is checked by `diagrams._check_int`, and a family with m by
    # `diagrams._check_family_and_m`: a copy elsewhere drifts, as "need m >= 1" once did
    # in seven places with no type check in most; every owned rule is still seen, so the
    # walk finds what it looks for
    assert sorted(_int_rule_copies(SOURCES) ^ OWN_INT_RULES) == []
