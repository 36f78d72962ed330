"""Independent cross-check for the ideal walk: explicit S and C matrices.

Builds the coin-conditioned shift as a permutation over the full register
and the coin as a Kronecker product, then multiplies dense matrices. It
shares no code with the compiler or with the analytic run_ideal, so tests
compare both against it.
"""

import math

import numpy as np


def run_ideal_dense_oracle(spec):
    """(steps, nodes) ideal position marginals, the same contract as run_ideal."""
    if spec.data_qubit_count > 6:
        raise ValueError("dense oracle is limited to 6 qubits")
    n_nodes = spec.node_count
    coin_dim = 2**spec.coin_qubits
    dim = n_nodes * coin_dim

    shift = np.zeros((dim, dim))
    for x in range(n_nodes):
        for c in range(coin_dim):
            if spec.coin_qubits == 1:
                x_next = (x + 1) % n_nodes if c == 1 else (x - 1) % n_nodes
            else:
                c1, c2 = divmod(c, 2)
                if c2 == 0:
                    x_next = x
                else:
                    x_next = (x + 1) % n_nodes if c1 == 1 else (x - 1) % n_nodes
            shift[x_next * coin_dim + c, x * coin_dim + c] = 1.0

    def ry(theta):
        half = theta / 2.0
        return np.array([[math.cos(half), -math.sin(half)], [math.sin(half), math.cos(half)]])

    psi = np.zeros(dim)
    psi[0] = 1.0
    tables = np.empty((spec.steps, n_nodes))
    for t in range(spec.steps):
        coin = ry(spec.theta_schedule[t])
        if spec.coin_qubits == 2:
            coin = np.kron(coin, ry(spec.phi_schedule[t]))
        psi = shift @ np.kron(np.eye(n_nodes), coin) @ psi
        tables[t] = np.sum((psi**2).reshape(n_nodes, coin_dim), axis=1)
    return tables
