"""Checks on the package's own source."""

import ast
import pathlib

import avdoa

# public names kept for the acceptance criteria, which call them from the tests
CALLED_BY_TESTS_ONLY = {
    "audio.gcc_phat_pair",    # criterion 01: the PHAT oracle
    "audio.decode_srp",       # criterion 04: the SRP-PHAT baseline
    "dataset.build_targets",  # criteria 06 and 07
    "visual.detection_rate",  # criterion 06
}


def test_every_public_function_and_class_is_used_in_the_package():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in pathlib.Path(avdoa.__file__).parent.glob("*.py")}
    references = []     # (module, name, line) of every name, attribute and import
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                references.append((module, node.id, node.lineno))
            elif isinstance(node, ast.Attribute):
                references.append((module, node.attr, node.lineno))
            elif isinstance(node, ast.ImportFrom):
                references += [(module, alias.name, node.lineno) for alias in node.names]

    def used(module, node):
        return any(name == node.name
                   and not (where == module and node.lineno <= line <= node.end_lineno)
                   for where, name, line in references)

    unused = {f"{module}.{node.name}" for module, tree in trees.items() for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_") and not used(module, node)}
    assert unused == CALLED_BY_TESTS_ONLY


def _opens_for_writing(call):
    """Whether a call to open() (or any .open) may write: its mode, the second
    argument, is not a constant string of read modes only."""
    func = call.func
    if (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) != "open":
        return False
    mode = call.args[1] if len(call.args) > 1 else next(
        (kw.value for kw in call.keywords if kw.arg == "mode"), ast.Constant("r"))
    return not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                and not set(mode.value) & set("wxa+"))


def test_store_write_bytes_is_the_only_code_that_opens_a_file_for_writing():
    writers = []
    for path in pathlib.Path(avdoa.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        allowed = [node for node in tree.body if path.stem == "store"
                   and isinstance(node, ast.FunctionDef) and node.name == "write_bytes"]
        writers += [f"{path.stem}:{node.lineno}" for node in ast.walk(tree)
                    if isinstance(node, ast.Call) and _opens_for_writing(node)
                    and not any(f.lineno <= node.lineno <= f.end_lineno for f in allowed)]
    assert writers == []
