"""End-to-end, layer-attributed benchmark of the mgsw front doors (see README.md)."""
