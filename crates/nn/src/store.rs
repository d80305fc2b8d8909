//! The one surviving forwarding wrapper over [`crate::artifact`].
//!
//! Parameters are written with [`ArtifactWriter`](crate::ArtifactWriter)
//! and read with [`ArtifactReader`]. [`decode`] stays because the
//! end-to-end benchmark (`e2ebench/src/stream_drift.rs`), which is kept
//! unchanged, still calls it. New code should use the typed reader directly.

use crate::artifact::ArtifactReader;
use crate::ParamStore;
use std::io;

/// Decodes artifact-or-legacy bytes into `store`: exactly
/// `ArtifactReader::decode(bytes)?.load_into(store)`, so every tier and
/// every legacy format loads, and a reduced-precision artifact installs its
/// tier on the store.
pub fn decode(store: &mut ParamStore, bytes: &[u8]) -> io::Result<()> {
    ArtifactReader::decode(bytes)?.load_into(store)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::{ArtifactWriter, PrecisionTier, PARAMS_SECTION};
    use crate::checkpoint;
    use msd_tensor::rng::Rng;
    use msd_tensor::Tensor;

    fn sample_store(seed: u64) -> ParamStore {
        let mut rng = Rng::seed_from(seed);
        let mut store = ParamStore::new();
        store.register("layer.w", Tensor::randn(&[3, 4], 1.0, &mut rng));
        store.register("layer.b", Tensor::randn(&[4], 1.0, &mut rng));
        store
    }

    fn bits(store: &ParamStore) -> Vec<Vec<u32>> {
        store
            .iter()
            .map(|(_, _, v)| v.data().iter().map(|x| x.to_bits()).collect())
            .collect()
    }

    fn encode_f32(store: &ParamStore) -> Vec<u8> {
        ArtifactWriter::new(PrecisionTier::F32).encode(store).unwrap()
    }

    #[test]
    fn round_trip_is_bit_exact() {
        let store = sample_store(1);
        let buf = encode_f32(&store);
        assert!(buf.starts_with(checkpoint::MAGIC), "f32 artifacts are MSDCKPT2");
        let mut restored = sample_store(2);
        decode(&mut restored, &buf).unwrap();
        assert_eq!(bits(&store), bits(&restored));
        assert_eq!(restored.tier(), PrecisionTier::F32);
    }

    #[test]
    fn legacy_msdckpt1_files_still_load() {
        // A raw stream written by the *original* API loads bit-exactly.
        let store = sample_store(3);
        let mut legacy = Vec::new();
        crate::serialize::save_raw(&store, &mut legacy).unwrap();
        assert!(legacy.starts_with(b"MSDCKPT1"));
        let mut restored = sample_store(4);
        decode(&mut restored, &legacy).unwrap();
        assert_eq!(bits(&store), bits(&restored));
    }

    #[test]
    fn pre_redesign_container_files_still_load() {
        // What the container API wrote before the artifact redesign: a
        // container holding a single bare "params" section, no "meta".
        // Migration guarantee: these files load bit-exactly as f32.
        let store = sample_store(5);
        let mut payload = Vec::new();
        crate::serialize::save_raw(&store, &mut payload).unwrap();
        let old_bytes = checkpoint::encode_container(&[(PARAMS_SECTION, payload)]);

        let mut restored = sample_store(6);
        decode(&mut restored, &old_bytes).unwrap();
        assert_eq!(bits(&store), bits(&restored));
        assert_eq!(restored.tier(), PrecisionTier::F32);

        // The typed reader reports it as the pre-v3 format.
        let reader = ArtifactReader::decode(&old_bytes).unwrap();
        assert_eq!(reader.format_version(), 2);
        assert_eq!(reader.tier(), PrecisionTier::F32);
        assert_eq!(reader.arch_fingerprint(), None);
    }

    #[test]
    fn decode_accepts_reduced_precision_artifacts() {
        // The wrapper is tier-transparent on the read side: an int8-tier
        // artifact loads through plain `decode` and installs its tier.
        let store = sample_store(7);
        let bytes = ArtifactWriter::new(PrecisionTier::Int8).encode(&store).unwrap();
        let mut restored = sample_store(8);
        decode(&mut restored, &bytes).unwrap();
        assert_eq!(restored.tier(), PrecisionTier::Int8);
        assert!(restored.quant(0).is_some());

        // And loading an f32 artifact afterwards resets the tier.
        decode(&mut restored, &encode_f32(&store)).unwrap();
        assert_eq!(restored.tier(), PrecisionTier::F32);
        assert!(restored.quant(0).is_none());
    }

    #[test]
    fn container_corruption_is_detected() {
        let store = sample_store(8);
        let mut buf = encode_f32(&store);
        // Any flipped payload bit trips a CRC before parsing.
        let mid = buf.len() / 2;
        buf[mid] ^= 0x01;
        let mut restored = sample_store(9);
        let before = bits(&restored);
        let err = decode(&mut restored, &buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(before, bits(&restored), "failed load mutated the store");
    }

    #[test]
    fn file_round_trip_and_legacy_file_load() {
        let dir = std::env::temp_dir();
        let store = sample_store(10);

        let new_path = dir.join("msd_store_new.ckpt");
        ArtifactWriter::new(PrecisionTier::F32).save_file(&store, &new_path).unwrap();
        let mut restored = sample_store(11);
        ArtifactReader::load_file(&new_path).unwrap().load_into(&mut restored).unwrap();
        assert_eq!(bits(&store), bits(&restored));
        let _ = std::fs::remove_file(&new_path);

        // A legacy raw-stream *file* loads through load_file too.
        let old_path = dir.join("msd_store_legacy.ckpt");
        let mut legacy = Vec::new();
        crate::serialize::save_raw(&store, &mut legacy).unwrap();
        std::fs::write(&old_path, &legacy).unwrap();
        let mut restored = sample_store(12);
        ArtifactReader::load_file(&old_path).unwrap().load_into(&mut restored).unwrap();
        assert_eq!(bits(&store), bits(&restored));
        let _ = std::fs::remove_file(&old_path);
    }

    #[test]
    fn garbage_is_invalid_data_not_a_panic() {
        let mut store = sample_store(13);
        let err = decode(&mut store, b"definitely not a checkpoint").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }
}
