"""Profile x workload pipeline benchmark (see README.md in this directory)."""
