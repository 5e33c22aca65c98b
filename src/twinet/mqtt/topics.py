"""Topic filter validation and wildcard matching.

Standard MQTT semantics: '+' matches exactly one level, '#' matches zero or
more trailing levels and must be the final level of a filter. Neither
matches a first level that starts with '$' (MQTT 3.1.1 section 4.7.2).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BadTopicError, FilterError


@dataclass(frozen=True)
class TopicFilter:
    levels: tuple[str, ...]

    def __str__(self) -> str:
        return "/".join(self.levels)

    def matches(self, levels: list[str]) -> bool:
        """True iff a valid topic name, split on '/' into ``levels``, matches.

        A wildcard in the first level does not match a topic name that starts
        with '$' (MQTT 3.1.1 section 4.7.2), so '#' does not see '$SYS/...'.
        """
        for i, flevel in enumerate(self.levels):
            if flevel == "#":
                return i > 0 or not levels[0].startswith("$")
            if i >= len(levels):
                return False
            if flevel == "+":
                if i == 0 and levels[0].startswith("$"):
                    return False
            elif flevel != levels[i]:
                return False
        return len(levels) == len(self.levels)


def validate_filter(filter_text: str) -> TopicFilter:
    """Parse a filter string, rejecting misplaced wildcards."""
    if not filter_text:
        raise FilterError("filter must be non-empty")
    levels = tuple(filter_text.split("/"))
    for i, level in enumerate(levels):
        if "#" in level:
            if level != "#":
                raise FilterError(f"'#' must occupy a whole level: {filter_text!r}")
            if i != len(levels) - 1:
                raise FilterError(f"'#' must be the final level: {filter_text!r}")
        elif "+" in level and level != "+":
            raise FilterError(f"'+' must occupy a whole level: {filter_text!r}")
    return TopicFilter(levels)


def validate_topic(topic: str) -> None:
    """Reject an empty topic name or one holding a wildcard."""
    if not topic:
        raise BadTopicError("topic must be non-empty")
    if "+" in topic or "#" in topic:
        raise BadTopicError(f"topic may not contain wildcards: {topic!r}")


def topic_matches(topic_filter: TopicFilter, topic: str) -> bool:
    """True iff the wildcard-free ``topic`` matches ``topic_filter``."""
    validate_topic(topic)
    return topic_filter.matches(topic.split("/"))
