import importlib.util
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def _code_lines_tool():
    spec = importlib.util.spec_from_file_location("code_lines", TOOLS / "code_lines.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


FIXTURE = '''"""Module docstring,
over two lines."""

# a comment line
import os  # a trailing comment


class Box:
    """Class docstring."""

    def size(self):
        """Function docstring
        on two lines.
        """
        # an indented comment
        text = """a string that is
# not a comment

and not a docstring"""
        return len(text)
'''
# code: import, class, def, the string's three non-blank lines, return
FIXTURE_CODE_LINES = 7


def test_code_lines_skip_docstrings_and_comments_but_count_other_strings():
    tool = _code_lines_tool()
    assert tool.code_lines(FIXTURE) == FIXTURE_CODE_LINES
    assert tool.code_lines('"""Only a docstring."""\n\n# and a comment\n') == 0
    assert tool.code_lines("x = 1\n'not a docstring'\n") == 2


def test_code_lines_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "b.py").write_text(FIXTURE, encoding="utf-8")
    (tmp_path / "a.py").write_text("x = 1\n\ny = 2\n", encoding="utf-8")
    assert _code_lines_tool().main([str(tmp_path)]) == 0
    assert capsys.readouterr().out == f"a.py 2\nb.py {FIXTURE_CODE_LINES}\ntotal 9\n"
