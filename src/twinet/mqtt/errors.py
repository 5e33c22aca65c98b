class CodecError(Exception):
    """Base class for wire-protocol encode/decode failures."""


class MalformedVarintError(CodecError):
    """Remaining-length varint longer than 4 bytes with continuation still set."""


class TruncatedFrameError(CodecError):
    """Input ended before the frame was complete."""


class StalledFrameError(CodecError):
    """A read timed out: the peer stopped sending, mid-frame or before one."""


class FrameTooLargeError(CodecError):
    """Frame header declares more bytes than MAX_FRAME_BYTES."""


class LengthMismatchError(CodecError):
    """Declared remaining length disagrees with the actual frame body."""


class UnknownPacketTypeError(CodecError):
    """Fixed-header type nibble does not name a supported packet."""


class BadTopicError(CodecError):
    """Topic string is not valid UTF-8 or violates topic rules."""


class FilterError(ValueError):
    """Topic filter violates wildcard placement rules."""
