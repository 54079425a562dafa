"""The former compiled prediction kernel, now the model itself.

:class:`~repro.core.placement.PlacementModel` is built with its dense
per-placement answer tables and answers every query by table lookup,
so there is no separate compiled form left.  ``CompiledModel`` names
the same class for code written against the kernel's API;
``CompiledModel.compile(model)`` returns ``model``.
"""

from repro.core.placement import PlacementModel as CompiledModel

__all__ = ["CompiledModel"]
