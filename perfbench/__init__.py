"""Wall-clock benchmark of the reproduction (see NOTES.md)."""
