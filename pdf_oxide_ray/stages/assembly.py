"""Conversation assembly constant.

A conversation's text is its turns' ``extracted_text`` in ``turn_idx``
order joined by ``TURN_SEPARATOR`` — the distributed analogue of the
reference's multi-page concat in page order (``to_markdown_all`` /
``to_plain_text_all``, ``src/document.rs:2317-2333,2366-2382``). Each
flagship row carries ``turn_offset``, its text's character offset in that
joined text, and ``conv_turns`` (``state/offset_index.py``).
"""

TURN_SEPARATOR = "\n\n"
