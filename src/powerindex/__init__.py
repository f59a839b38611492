"""Power graphs of finite groups and the power index machinery built on them."""

__version__ = "0.1.0"

# The names the command line offers as choices, here so that parsing its
# arguments imports no other module; verify and graphs read them from here.
SUITE_NAMES = ("chi", "theta-kn", "kst", "matching", "thm44", "degrees", "all")
FORMATS = ("edgelist", "json", "dot")
