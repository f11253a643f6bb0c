"""Config keys: every documented default is read somewhere."""

from pathlib import Path

from synthvc import config


def test_every_config_key_is_read_outside_config():
    pkg = Path(config.__file__).parent
    sources = "\n".join(p.read_text(encoding="utf-8") for p in sorted(pkg.glob("*.py"))
                        if p.name != "config.py")
    unread = [k for k in config.DEFAULTS
              if f'"{k}"' not in sources and f"'{k}'" not in sources]
    assert unread == []
