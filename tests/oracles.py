"""Independent verification paths used by the test suite.

The Gauss-Seidel solver shares no code with the Z-bus power-flow kernel of
``rtopf.powerflow``: it iterates the fixed-point voltage update bus by bus
in rectangular form, straight from the definition of complex power. Slow
but simple enough to audit by eye.
"""

import numpy as np

from rtopf.network import build_admittance


def gauss_seidel_power_flow(net, inj, tol=1e-12, max_iter=50000):
    """Returns (v_complex, p_s_mw, q_s_mvar) or raises RuntimeError."""
    y = build_admittance(net)
    n = net.n_buses
    s = (np.asarray(inj.p_mw, dtype=float)
         + 1j * np.asarray(inj.q_mvar, dtype=float)) / net.base_mva
    v = np.full(n, net.slack_voltage * np.exp(1j * net.slack_angle),
                dtype=complex)
    for _ in range(max_iter):
        delta = 0.0
        for i in range(1, n):
            # I_i = conj(S_i / V_i) and I_i = sum_j Y_ij V_j, solved for V_i
            others = y[i] @ v - y[i, i] * v[i]
            vi = (np.conj(s[i]) / np.conj(v[i]) - others) / y[i, i]
            delta = max(delta, abs(vi - v[i]))
            v[i] = vi
        if delta < tol:
            break
    else:
        raise RuntimeError("gauss-seidel did not converge")
    s_slack = v[0] * np.conj(y[0] @ v)
    return v, float(s_slack.real) * net.base_mva, \
        float(s_slack.imag) * net.base_mva
