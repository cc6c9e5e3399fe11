"""The package has one setting, the table byte budget: one environment read,
and no order bound beside it."""

import ast
from pathlib import Path

import centra
from centra import groups

PACKAGE = Path(centra.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))
ENV_NAMES = {"environ", "environb", "getenv", "getenvb"}


def environment_reads(source: str) -> list[str]:
    """Each use of ``os.environ`` or ``os.getenv`` (and their bytes forms),
    and each import of them from ``os``, with its line and the source it reads."""
    tree = ast.parse(source)
    reads = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in ENV_NAMES:
            reads.append(f"line {node.lineno}: {ast.unparse(node)}")
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            reads += [f"line {node.lineno}: from os import {a.name}" for a in node.names if a.name in ENV_NAMES]
    return reads


def test_one_environment_read_the_table_budget():
    reads = {path.name: environment_reads(path.read_text()) for path in MODULES}
    found = [(name, r) for name, rs in reads.items() for r in rs]
    assert len(found) == 1, found
    name, read = found[0]
    assert name == "groups.py"
    line = int(read.split(":")[0].split()[1])
    assert "os.environ.get(TABLE_BYTES_ENV, " in (PACKAGE / name).read_text().splitlines()[line - 1]
    assert groups.TABLE_BYTES_ENV == "CENTRA_TABLE_BYTES"


def test_no_order_bound_left_in_the_package():
    for path in sorted(PACKAGE.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            assert "max_order" not in path.read_text().lower(), path.name


def test_detector_sees_attribute_call_and_import_reads():
    source = (
        "import os\n"
        "from os import getenv, path\n"
        "a = os.environ['X']\n"
        "b = os.getenv('Y')\n"
        "c = os.path.sep\n"
    )
    assert environment_reads(source) == [
        "line 2: from os import getenv",
        "line 3: os.environ",
        "line 4: os.getenv",
    ]
