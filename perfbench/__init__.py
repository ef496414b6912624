"""Wall-clock curation benchmark (see README.md)."""
