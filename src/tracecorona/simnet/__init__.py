"""Deterministic discrete-event proximity simulator.

The package holds only what the command line reads before it runs a
scenario, the scheme names and the configuration error, so importing
it loads no simulator module.
"""

SCHEMES = ("tracecorona", "centralized", "decentralized")


class ConfigError(Exception):
    """Invalid scenario configuration; message starts with the field path."""

    def __init__(self, path: str, problem: str):
        self.path = path
        self.problem = problem
        super().__init__(f"{path}: {problem}")

    def __reduce__(self):
        # Rebuilt from both arguments, so the error survives a worker process.
        return ConfigError, (self.path, self.problem)

    def within(self, prefix: str) -> "ConfigError":
        """The same error, its path read from the object that holds ``prefix``."""
        if not self.path or self.path.startswith("["):
            return ConfigError(prefix + self.path, self.problem)
        return ConfigError(f"{prefix}.{self.path}", self.problem)
