//! End-to-end decomposition integration: the Figure 4 claim — training
//! with the Residual Loss produces a whiter, smaller residual than without.

use msd_data::{long_term_datasets, LongRangeSpec, SlidingWindows, Split, StandardScaler};
use msd_harness::{fit, AnyModel, ForecastSource, TrainConfig};
use msd_mixer::{decompose, MsdMixer, MsdMixerConfig};
use msd_nn::{ArtifactReader, ArtifactWriter, ParamStore, PrecisionTier, Task};
use msd_tensor::rng::Rng;

fn spec() -> LongRangeSpec {
    LongRangeSpec {
        total_steps: 1200,
        channels: 4,
        ..long_term_datasets()
            .into_iter()
            .find(|s| s.name == "ETTh1")
            .unwrap()
    }
}

fn train_mixer(lambda: f32) -> (ParamStore, MsdMixer, msd_tensor::Tensor) {
    let spec = spec();
    let raw = spec.generate();
    let scaler = StandardScaler::fit(&raw, 840);
    let data = scaler.transform(&raw);
    let train_src = ForecastSource::new(SlidingWindows::new(&data, 96, 48, Split::Train), 192);
    let mut store = ParamStore::new();
    let mut rng = Rng::seed_from(7);
    let cfg = MsdMixerConfig {
        in_channels: spec.channels,
        input_len: 96,
        patch_sizes: vec![24, 12, 6, 2, 1],
        d_model: 8,
        hidden_ratio: 2,
        drop_path: 0.0,
        alpha: 2.0,
        lambda,
        magnitude_only: false,
        task: Task::Forecast { horizon: 48 },
    };
    let mixer = MsdMixer::new(&mut store, &mut rng, &cfg);
    let model = AnyModel::Mixer(mixer);
    fit(
        &model,
        &mut store,
        &train_src,
        None,
        &TrainConfig {
            epochs: 4,
            lr: 5e-3,
            ..TrainConfig::default()
        },
    );
    let AnyModel::Mixer(mixer) = model else {
        unreachable!()
    };
    let test_w = SlidingWindows::new(&data, 96, 48, Split::Test);
    let (x, _) = test_w.get(0);
    (store, mixer, x)
}

#[test]
fn residual_loss_shrinks_the_residual() {
    let (store_with, mixer_with, x) = train_mixer(1.0);
    let (store_without, mixer_without, _) = train_mixer(0.0);
    let d_with = decompose(&mixer_with, &store_with, &x);
    let d_without = decompose(&mixer_without, &store_without, &x);

    assert!(d_with.is_consistent(1e-3));
    assert!(d_without.is_consistent(1e-3));
    // The Figure 4 claim: with the Residual Loss, far less energy is left
    // in the residual.
    assert!(
        d_with.residual_energy() < d_without.residual_energy() * 0.8,
        "residual energy with={} without={}",
        d_with.residual_energy(),
        d_without.residual_energy()
    );
    assert!(d_with.explained_energy() > d_without.explained_energy());
}

#[test]
fn checkpoint_round_trip_preserves_decomposition() {
    let (mut store, mixer, x) = train_mixer(1.0);
    let before = decompose(&mixer, &store, &x);
    let mut buf = Vec::new();
    ArtifactWriter::new(PrecisionTier::F32).save(&store, &mut buf).unwrap();
    // Perturb all params, then restore.
    for i in 0..store.len() {
        let t = store.get_mut(i);
        let noise = msd_tensor::Tensor::full(t.shape(), 0.1);
        t.add_assign(&noise);
    }
    ArtifactReader::decode(&buf).unwrap().load_into(&mut store).unwrap();
    let after = decompose(&mixer, &store, &x);
    assert!(msd_tensor::allclose(&before.residual, &after.residual, 1e-5));
    for (a, b) in before.components.iter().zip(&after.components) {
        assert!(msd_tensor::allclose(a, b, 1e-5));
    }
}
