from collections import OrderedDict

import pytest

import icspin
import icspin.propagation


@pytest.fixture(autouse=True)
def _fresh_engine_memo(monkeypatch):
    """Each test starts with no engine kept by ``engine_for``, so an engine
    built by an earlier test, or before a test patched the engine class,
    is never handed back."""
    monkeypatch.setattr(icspin.propagation, "_engines", OrderedDict())


@pytest.fixture(scope="session")
def system():
    return icspin.load_system(icspin.data_path("system_2q.json"))


@pytest.fixture(scope="session")
def registers():
    return icspin.load_system(icspin.data_path("system_4c.json"))


@pytest.fixture(scope="session")
def h_subspace(system):
    return icspin.multiqubit_hamiltonian(system)


@pytest.fixture(scope="session")
def hadamard_seq():
    return icspin.load_sequence(icspin.data_path("sequences/hadamard.json"))


@pytest.fixture(scope="session")
def cnot_seq():
    return icspin.load_sequence(icspin.data_path("sequences/cnot.json"))


@pytest.fixture(scope="session")
def register_hamiltonians(registers):
    """Working-subspace Hamiltonians of the first 1..4 carbons (d4..d32)."""
    return {k: icspin.multiqubit_hamiltonian(registers.subset(list(range(1, k + 1))))
            for k in range(1, registers.n_carbons + 1)}
