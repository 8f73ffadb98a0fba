"""Every test here runs under the shared leak check: forked shard workers and their shared-memory rings."""

from tests.leaks import nothing_leaked  # noqa: F401  (autouse in this package)
