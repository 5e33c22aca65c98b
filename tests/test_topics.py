import random

import pytest

from twinet.mqtt import FilterError, TopicFilter, topic_matches, validate_filter


def naive_match(filter_levels, topic_levels):
    """Level-by-level recursive reference matcher."""
    if not filter_levels:
        return not topic_levels
    head, rest = filter_levels[0], filter_levels[1:]
    if head == "#":
        return True
    if not topic_levels:
        return False
    if head == "+" or head == topic_levels[0]:
        return naive_match(rest, topic_levels[1:])
    return False


class TestValidateFilter:
    def test_plus_levels(self):
        assert validate_filter("a/+/c").levels == ("a", "+", "c")

    def test_hash_only(self):
        assert validate_filter("#").levels == ("#",)

    def test_hash_not_last(self):
        with pytest.raises(FilterError):
            validate_filter("a/#/b")

    def test_embedded_plus(self):
        with pytest.raises(FilterError):
            validate_filter("a+b")

    def test_embedded_hash(self):
        with pytest.raises(FilterError):
            validate_filter("a/b#")

    def test_empty(self):
        with pytest.raises(FilterError):
            validate_filter("")


class TestTopicMatches:
    @pytest.mark.parametrize("filter_text,topic,expected", [
        ("a/+", "a/b", True),
        ("a/+", "a/b/c", False),
        ("a/#", "a", True),
        ("a/#", "a/b/c", True),
        ("#", "anything/at/all", True),
        ("a/b", "a/b", True),
        ("a/b", "a/c", False),
        ("+/b", "a/b", True),
        ("a", "a/b", False),
        # MQTT 3.1.1 section 4.7.2: a wildcard in a filter's first level
        # does not match a topic name that starts with '$'
        ("#", "$SYS/broker/clients", False),
        ("#", "$SYS", False),
        ("+", "$SYS", False),
        ("+/broker/#", "$SYS/broker/clients", False),
        ("$SYS/#", "$SYS/broker/clients", True),
        ("$SYS/+/clients", "$SYS/broker/clients", True),
        ("$SYS", "$SYS", True),
        ("a/#", "a/$b", True),
        ("+/$b", "a/$b", True),
        ("#", "a$", True),
        ("+", "a$", True),
    ])
    def test_examples(self, filter_text, topic, expected):
        assert topic_matches(validate_filter(filter_text), topic) is expected

    def test_non_wildcard_mismatch_never_matches(self):
        filt = validate_filter("a/b/c")
        assert not topic_matches(filt, "a/x/c")

    def test_agrees_with_naive_matcher(self):
        rng = random.Random(7)
        alphabet = ["a", "b", "c"]
        for _ in range(10_000):
            depth = rng.randint(1, 4)
            topic_levels = [rng.choice(alphabet) for _ in range(depth)]
            filter_levels = []
            for _ in range(rng.randint(1, 4)):
                roll = rng.random()
                if roll < 0.2:
                    filter_levels.append("+")
                elif roll < 0.3:
                    filter_levels.append("#")
                    break
                else:
                    filter_levels.append(rng.choice(alphabet))
            topic = "/".join(topic_levels)
            filt = TopicFilter(tuple(filter_levels))
            assert topic_matches(filt, topic) == naive_match(
                filter_levels, topic_levels
            ), (filter_levels, topic_levels)
