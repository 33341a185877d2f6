"""Serve the files under a directory over HTTP, with a fixed delay before
each response that stands in for remote latency.  A path with no file
answers 404.  Prints the bound port on its first output line, then serves
until terminated or until the process that started it ends.

    python3 perfbench/docserver.py --root DIR --delay 0.005
"""

from __future__ import annotations

import argparse
import os
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path


def make_handler(root: Path, delay: float):
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"  # keep-alive, so a client may reuse connections

        def do_GET(self):
            time.sleep(delay)
            path = (root / self.path.lstrip("/")).resolve()
            try:
                if root not in path.parents:
                    raise FileNotFoundError(self.path)
                body = path.read_bytes()
            except OSError:
                self.send_response(404)
                self.send_header("Content-Length", "0")
                self.end_headers()
                return
            self.send_response(200)
            self.send_header("Content-Type", "text/turtle")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, *args):
            pass

    return Handler


def _exit_with_parent(parent: int) -> None:
    """End this process if the process that started it has gone."""
    while os.getppid() == parent:
        time.sleep(0.5)
    os._exit(0)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", required=True)
    parser.add_argument("--delay", type=float, required=True, help="seconds per response")
    args = parser.parse_args()
    server = ThreadingHTTPServer(("127.0.0.1", 0), make_handler(Path(args.root).resolve(), args.delay))
    server.daemon_threads = True
    threading.Thread(target=_exit_with_parent, args=(os.getppid(),), daemon=True).start()
    print(server.server_address[1], flush=True)
    server.serve_forever()


if __name__ == "__main__":
    main()
