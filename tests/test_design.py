"""Design invariants of the package, read from its source files."""
import ast
from pathlib import Path

import icspin

SOURCES = {path.name: path.read_text(encoding="utf-8")
           for path in Path(icspin.__file__).parent.glob("*.py")}


def test_one_propagation_engine_and_one_hamiltonian_builder():
    """Only the propagation engine diagonalizes, and one function builds
    the register Hamiltonian."""
    eigh_users = sorted(name for name, text in SOURCES.items() if "linalg.eigh" in text)
    assert eigh_users == ["propagation.py"]
    builders = sorted(f"{name}:{node.name}" for name, text in SOURCES.items()
                      for node in ast.walk(ast.parse(text))
                      if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                      and node.name.endswith("_hamiltonian"))
    assert builders == ["hamiltonian.py:multiqubit_hamiltonian"]
