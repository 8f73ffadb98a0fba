"""Every test here runs under the shared leak check: spawned member processes and their admin sockets."""

from tests.leaks import nothing_leaked  # noqa: F401  (autouse in this package)
