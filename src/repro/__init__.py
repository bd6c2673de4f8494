"""ADEPT: Automatic Differentiable DEsign of Photonic Tensor cores.

A from-scratch reproduction of Gu et al., DAC 2022
(arXiv:2112.08703), including every substrate: a complex-valued
autograd engine, an NN layer library, photonic device models and
foundry PDKs, the MZI-ONN and FFT-ONN baselines, and the full ADEPT
differentiable topology-search flow.

Quickstart::

    from repro.core import ADEPTConfig, search_ptc
    from repro.photonics import AMF

    cfg = ADEPTConfig(k=8, pdk=AMF, f_min=240_000, f_max=300_000)
    result = search_ptc(cfg)
    print(result.topology.summary(AMF))
"""

import importlib

__version__ = "1.0.0"

#: Re-exported from :mod:`repro.autograd.backend`.
_BACKEND_NAMES = (
    "available_backends",
    "backend_scope",
    "default_backend",
    "get_backend",
    "register_backend",
    "set_default_backend",
)

__all__ = [
    "analysis",
    "autograd",
    "available_backends",
    "backend_scope",
    "core",
    "data",
    "default_backend",
    "get_backend",
    "layout",
    "nn",
    "onn",
    "optim",
    "photonics",
    "ptc",
    "register_backend",
    "service",
    "set_default_backend",
    "utils",
    "__version__",
]


def __getattr__(name: str):
    # PEP 562: subpackages and the backend re-exports load on first
    # access, so ``import repro`` costs only this module (see the
    # "Import cost" section of docs/ARCHITECTURE.md).
    if name in _BACKEND_NAMES:
        value = getattr(importlib.import_module(".autograd.backend", __name__), name)
    elif name in __all__:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value
