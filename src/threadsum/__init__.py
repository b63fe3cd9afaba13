"""Abstractive summarization of online news discussion threads.

The encoder-decoder reads a whole thread (news title plus comments), scales
each comment's encoded tokens by a weight derived from its like count, and
learns to generate the title together with the thread's most salient
comments.  Evaluation compares the summary's per-comment ROUGE distribution
against the likes distribution.
"""

kernel_backend = "pure"  # read by perfbench/run.py for its environment block

__version__ = "0.1.0"

__all__ = ["kernel_backend", "__version__"]
