"""Shared test settings."""

from hypothesis import settings

# a longer run of the CLI exit-code contract test: pytest --hypothesis-profile cli-contract-long
settings.register_profile("cli-contract-long", max_examples=450)
