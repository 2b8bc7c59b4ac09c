"""Tiny threaded HTTP server for exercising the remote clients in-process."""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer


class ScriptedServer:
    """Serves scripted responses and records every request it sees.

    respond is a callable (path, body_dict, headers) -> (status, payload);
    payload is JSON-encoded unless it is bytes, which are sent as they are.
    Requests are appended to self.requests.
    """

    def __init__(self, respond):
        self.respond = respond
        self.requests: list[dict] = []
        self._lock = threading.Lock()
        outer = self

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                length = int(self.headers.get("Content-Length", 0))
                body = json.loads(self.rfile.read(length) or b"{}")
                with outer._lock:
                    outer.requests.append(
                        {
                            "path": self.path,
                            "body": body,
                            "headers": dict(self.headers),
                        }
                    )
                status, payload = outer.respond(self.path, body, self.headers)
                if isinstance(payload, bytes):
                    blob = payload
                else:
                    blob = json.dumps(payload).encode("utf-8")
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(blob)))
                self.end_headers()
                self.wfile.write(blob)

            def log_message(self, *args):
                pass

        self.server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self.thread = threading.Thread(
            target=self.server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True
        )

    def __enter__(self) -> "ScriptedServer":
        self.thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self.server.shutdown()
        self.server.server_close()

    @property
    def url(self) -> str:
        host, port = self.server.server_address
        return f"http://{host}:{port}"
