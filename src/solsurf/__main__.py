"""python -m solsurf: the solsurf command line."""

from .cli import main_entry

main_entry()
