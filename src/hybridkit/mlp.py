"""SwiGLU feed-forward block: y = W_down (silu(W_gate x) * (W_up x))."""

import numpy as np

from .numerics import sigmoid, silu, silu_grad


def swiglu_forward(x, w_gate, w_up, w_down, tape=None):
    g = x @ w_gate.T
    u = x @ w_up.T
    a = silu(g)
    a *= u
    y = a @ w_down.T
    if tape is not None:
        tape["x"], tape["g"], tape["u"] = x, g, u
    return y


def swiglu_backward(tape, w_gate, w_up, w_down, dy):
    """Returns (dx, grads) with grads keyed gate/up/down. The activation
    a = silu(g) * u is rebuilt from the taped g and u with the one sigmoid
    the adjoint needs anyway, so the tape holds no hidden-sized a."""
    x, g, u = tape["x"], tape["g"], tape["u"]
    da = dy @ w_down
    s = sigmoid(g)
    dg = silu_grad(g, s)
    dg *= u
    dg *= da
    du = s
    du *= g                 # silu(g)
    a = du * u
    du *= da
    dx = du @ w_up + dg @ w_gate

    def flat(t):
        return t.reshape(-1, t.shape[-1])

    return dx, {"gate": flat(dg).T @ flat(x), "up": flat(du).T @ flat(x),
                "down": flat(dy).T @ flat(a)}
