"""Stable-storage and local-memory substrates.

The network file server of the paper is :class:`StableStorage` (FIFO queue +
disk service model with full contention telemetry); tentative checkpoints
and optimistic message logs live in :class:`LocalStore` until finalization.
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .disk_model import DiskModel
    from .local_store import LocalItem, LocalStore
    from .networked import RemoteStorage, StorageServer, install_ack_shim
    from .serialize import (
        checkpoint_from_dict,
        checkpoint_to_dict,
        control_message_from_dict,
        control_message_to_dict,
        dumps_checkpoint,
        export_run,
        import_run,
        loads_checkpoint,
        log_entry_from_dict,
        log_entry_to_dict,
        piggyback_from_dict,
        piggyback_to_dict,
    )
    from .space import SpaceKey, SpaceTracker
    from .stable_storage import StableStorage, WriteRequest

#: Lazily-resolved exports: name -> defining submodule.
_LAZY = {
    "DiskModel": "disk_model",
    "LocalItem": "local_store",
    "LocalStore": "local_store",
    "RemoteStorage": "networked",
    "StorageServer": "networked",
    "install_ack_shim": "networked",
    "checkpoint_from_dict": "serialize",
    "checkpoint_to_dict": "serialize",
    "control_message_from_dict": "serialize",
    "control_message_to_dict": "serialize",
    "dumps_checkpoint": "serialize",
    "export_run": "serialize",
    "import_run": "serialize",
    "loads_checkpoint": "serialize",
    "log_entry_from_dict": "serialize",
    "log_entry_to_dict": "serialize",
    "piggyback_from_dict": "serialize",
    "piggyback_to_dict": "serialize",
    "SpaceKey": "space",
    "SpaceTracker": "space",
    "StableStorage": "stable_storage",
    "WriteRequest": "stable_storage",
}

__getattr__, __dir__ = lazy_exports(globals(), _LAZY)

__all__ = [
    "DiskModel",
    "LocalItem",
    "LocalStore",
    "RemoteStorage",
    "SpaceKey",
    "SpaceTracker",
    "StableStorage",
    "StorageServer",
    "WriteRequest",
    "checkpoint_from_dict",
    "checkpoint_to_dict",
    "control_message_from_dict",
    "control_message_to_dict",
    "dumps_checkpoint",
    "export_run",
    "import_run",
    "install_ack_shim",
    "loads_checkpoint",
    "log_entry_from_dict",
    "log_entry_to_dict",
    "piggyback_from_dict",
    "piggyback_to_dict",
]
