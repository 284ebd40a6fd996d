import os
import sys

from .cli import main

if __name__ == "__main__":
    try:
        try:
            code = main()
        finally:
            # Flush here rather than at interpreter exit, where a closed
            # pipe would escape this handler.
            sys.stdout.flush()
    except BrokenPipeError:
        # Reader (e.g. `| head`) closed the pipe; not an error.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise SystemExit(0)
    raise SystemExit(code)
