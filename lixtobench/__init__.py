"""End-to-end benchmark of the Lixto reproduction (see NOTES.md)."""
