"""asyncbench: the repo benchmark (see README.md in this directory)."""
