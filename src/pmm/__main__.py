"""`python -m pmm`: the command-line driver."""
from .cli import entry

entry()
