"""Fixture: hot-path allocation shapes the slots pass accepts."""


class SlottedBase:
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value


class SlottedChild(SlottedBase):
    __slots__ = ()


class ColdError(Exception):
    pass


class QuietPump:
    def tick(self):
        if not self:
            raise ColdError("raise sites are cold paths")
        return SlottedChild(1)

    def cold_setup(self):
        # Not a hot function: unslotted instantiation is fine here.
        return Churn(3)
