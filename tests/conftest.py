"""Hypothesis profiles for the property that compares randomized_equal with
its full-product reference on sides that share parts.

``oracle`` (25 derandomized examples) is what tier-1 runs; ``oracle-deep``
runs the same property at 100 times the size:

    IQGKLO_ORACLE_PROFILE=oracle-deep python -m pytest -q \\
        tests/test_oracle.py -k sides_share_parts
"""

from hypothesis import settings

settings.register_profile("oracle", max_examples=25, derandomize=True,
                          deadline=None)
settings.register_profile("oracle-deep", settings.get_profile("oracle"),
                          max_examples=2500)
