"""The IFLS benchmark's modules; see ``perfbench/README.md``."""
