"""Consistency analysis and protocol simulation for per-object data checkpoints."""

# So that `import txckpt` loads the library; each name is imported from its module.
from . import dependence, model, protocol, scenario, sim, theory
