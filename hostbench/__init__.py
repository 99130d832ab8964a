"""Host-time benchmark of the (m, l)-TCU simulator; see ``NOTES.md``."""
