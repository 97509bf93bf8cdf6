"""Hypothesis profiles for the properties that compare randomized_equal
with its full-product reference, on sides that share parts and on
scripted streams of retries and mismatches.

``oracle`` (25 derandomized examples) is what tier-1 runs; ``oracle-deep``
runs the same properties at 100 times the size:

    IQGKLO_ORACLE_PROFILE=oracle-deep python -m pytest -q \\
        tests/test_oracle.py -k "sides_share_parts or scripted_events"
"""

from hypothesis import settings

settings.register_profile("oracle", max_examples=25, derandomize=True,
                          deadline=None)
settings.register_profile("oracle-deep", settings.get_profile("oracle"),
                          max_examples=2500)
