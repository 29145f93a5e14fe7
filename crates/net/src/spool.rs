//! On-disk spooling of unacknowledged interval frames.
//!
//! An ingest node writes every interval frame to its spool *before*
//! attempting the network send, and deletes it only when the aggregator's
//! `Ack` arrives. Crashes and disconnects reduce to the same recovery: on
//! reconnect, resend whatever the spool still holds (oldest first); a
//! frame dropped on a live connection is read back and resent once a
//! later ack proves it lost. The aggregator deduplicates by
//! `(node, interval)`, so resending is always safe.
//!
//! Files are written tmp-then-rename: a crash mid-write leaves a `.tmp`
//! orphan, never a half-written `.frm` that a restart would try to
//! resend. This is deliberately *not* `scd_hash::envelope::write_atomic`,
//! which also fsyncs the parent directory: the spool sits on the fan-in
//! hot path (one store per interval, before the first send), and a rename
//! lost to a power cut costs nothing here — the interval is simply absent
//! from the spool, exactly as if the node had died a moment earlier, and
//! the aggregator's parity ladder covers it. Frame bytes carry their own
//! CRC, so a spool file damaged at rest is detected when it is re-read.

use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// Spool file extension for complete, resendable frames.
const EXT: &str = "frm";

/// A directory of pending (unacknowledged) interval frames for one node.
#[derive(Debug)]
pub struct SpoolDir {
    dir: PathBuf,
    node: u32,
}

impl SpoolDir {
    /// Opens (creating if needed) the spool directory.
    ///
    /// # Errors
    /// Filesystem errors creating the directory.
    pub fn open(dir: &Path, node: u32) -> io::Result<SpoolDir> {
        fs::create_dir_all(dir)?;
        Ok(SpoolDir { dir: dir.to_path_buf(), node })
    }

    fn file_name(&self, interval: u64) -> PathBuf {
        self.dir.join(format!("n{:03}-i{:020}.{EXT}", self.node, interval))
    }

    /// Persists a frame for `interval` atomically (tmp write + rename).
    ///
    /// # Errors
    /// Filesystem errors; the final path never holds partial bytes.
    pub fn store(&self, interval: u64, frame: &[u8]) -> io::Result<()> {
        let path = self.file_name(interval);
        let tmp = path.with_extension("tmp");
        {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(frame)?;
            f.sync_all()?;
        }
        fs::rename(&tmp, &path)?;
        Ok(())
    }

    /// Drops the spooled frame for `interval` (idempotent: acking an
    /// already-removed interval is not an error).
    ///
    /// # Errors
    /// Filesystem errors other than the file already being gone.
    pub fn ack(&self, interval: u64) -> io::Result<()> {
        match fs::remove_file(self.file_name(interval)) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e),
        }
    }

    /// Unacknowledged intervals for this node, oldest first.
    ///
    /// # Errors
    /// Filesystem errors listing the directory.
    pub fn pending(&self) -> io::Result<Vec<u64>> {
        let prefix = format!("n{:03}-i", self.node);
        let mut intervals = Vec::new();
        for entry in fs::read_dir(&self.dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let Some(stem) = name.strip_suffix(&format!(".{EXT}")) else { continue };
            let Some(digits) = stem.strip_prefix(&prefix) else { continue };
            if let Ok(interval) = digits.parse::<u64>() {
                intervals.push(interval);
            }
        }
        intervals.sort_unstable();
        Ok(intervals)
    }

    /// Reads back the spooled frame bytes for `interval`.
    ///
    /// # Errors
    /// Filesystem errors (including the frame having been acked away).
    pub fn load(&self, interval: u64) -> io::Result<Vec<u8>> {
        fs::read(self.file_name(interval))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("scd-net-spool-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn store_pending_ack_round_trip() {
        let dir = tmp_dir("rt");
        let spool = SpoolDir::open(&dir, 1).unwrap();
        assert!(spool.pending().unwrap().is_empty());
        spool.store(3, b"three").unwrap();
        spool.store(1, b"one").unwrap();
        spool.store(2, b"two").unwrap();
        assert_eq!(spool.pending().unwrap(), vec![1, 2, 3]);
        assert_eq!(spool.load(2).unwrap(), b"two");
        spool.ack(2).unwrap();
        spool.ack(2).unwrap(); // idempotent
        assert_eq!(spool.pending().unwrap(), vec![1, 3]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn orphaned_tmp_files_are_not_pending() {
        let dir = tmp_dir("orphan");
        let spool = SpoolDir::open(&dir, 0).unwrap();
        spool.store(5, b"good").unwrap();
        // A crash between create and rename leaves exactly this artifact.
        fs::write(dir.join("n000-i00000000000000000006.tmp"), b"half").unwrap();
        assert_eq!(spool.pending().unwrap(), vec![5]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn spools_are_per_node_within_a_directory() {
        let dir = tmp_dir("multi");
        let a = SpoolDir::open(&dir, 0).unwrap();
        let b = SpoolDir::open(&dir, 1).unwrap();
        a.store(1, b"a1").unwrap();
        b.store(2, b"b2").unwrap();
        assert_eq!(a.pending().unwrap(), vec![1]);
        assert_eq!(b.pending().unwrap(), vec![2]);
        let _ = fs::remove_dir_all(&dir);
    }
}
