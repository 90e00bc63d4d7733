"""egoview: egocentric-view visibility analysis, multi-view question synthesis,
and 2D-3D-text corpus tooling for annotated indoor scenes.

Each name is imported from the module that defines it, e.g.
`from egoview.solvability import min_view_count`, so importing the package
loads no numpy."""

__version__ = "0.1.0"
