"""`python -m kcx`: the `kcx` command, from a checkout that is not installed.

The guard keeps a plain import of `kcx.__main__` (as `pkgutil` walks of the
package do) from running the command."""

from .cli import main

if __name__ == "__main__":
    main()
