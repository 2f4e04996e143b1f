//! One trait over the paper's three detectors.
//!
//! §4 trains three independent artifacts — a stall Random Forest, an
//! average-representation Random Forest and a calibrated σ(CUSUM)
//! switch threshold — but §5 applies them identically: freeze, project
//! a session's network-visible observations into the model's feature
//! space, predict a class. [`Detector`] captures that shared shape, so
//! generic harness code (round-trip tests, accuracy sweeps, the
//! reproduction tables) can treat [`StallModel`],
//! [`RepresentationModel`] and [`SwitchModel`] uniformly while each
//! keeps its richer inherent API (confusion matrices, per-class
//! accuracies, Figure-4 score populations).

use vqoe_features::{RqClass, SessionObs, StallClass};

use crate::avgrep_pipeline::RepresentationModel;
use crate::stall_pipeline::StallModel;
use crate::switch_pipeline::SwitchModel;

/// A frozen, deployable per-session detector.
pub trait Detector {
    /// What the detector predicts per session.
    type Class: Copy + PartialEq + std::fmt::Debug;

    /// Stable human-readable name (for reports and error messages).
    fn name(&self) -> &'static str;

    /// Project a session's observations into the model's own feature
    /// space: the CFS-selected subset for the forests, the 1-dim
    /// σ(CUSUM) score for the switch model.
    fn project(&self, obs: &SessionObs) -> Vec<f64>;

    /// Predict the class of one session.
    fn predict(&self, obs: &SessionObs) -> Self::Class;

    /// Stable snake_case label for one predicted class, used to build
    /// metric names (`vqoe_core_detector_<name>_class_<label>_total`).
    fn class_label(class: &Self::Class) -> &'static str;

    /// Apply the frozen detector to labelled sessions and count hits —
    /// the §5 "directly tested" protocol, class-agnostic.
    fn evaluate(&self, labelled: &[(SessionObs, Self::Class)]) -> DetectorAccuracy {
        let correct = labelled
            .iter()
            .filter(|(obs, truth)| self.predict(obs) == *truth)
            .count();
        DetectorAccuracy {
            n: labelled.len(),
            correct,
        }
    }
}

/// Hit count of a frozen detector over a labelled set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DetectorAccuracy {
    /// Sessions evaluated.
    pub n: usize,
    /// Sessions predicted correctly.
    pub correct: usize,
}

impl DetectorAccuracy {
    /// Fraction correct (0 when the set was empty).
    pub fn accuracy(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.correct as f64 / self.n as f64
        }
    }
}

impl Detector for StallModel {
    type Class = StallClass;

    fn name(&self) -> &'static str {
        "stall"
    }

    fn project(&self, obs: &SessionObs) -> Vec<f64> {
        self.plan().exact(obs)
    }

    fn predict(&self, obs: &SessionObs) -> StallClass {
        StallModel::predict(self, obs)
    }

    fn class_label(class: &StallClass) -> &'static str {
        match class {
            StallClass::NoStalls => "no_stalls",
            StallClass::Mild => "mild",
            StallClass::Severe => "severe",
        }
    }
}

impl Detector for RepresentationModel {
    type Class = RqClass;

    fn name(&self) -> &'static str {
        "representation"
    }

    fn project(&self, obs: &SessionObs) -> Vec<f64> {
        self.plan().exact(obs)
    }

    fn predict(&self, obs: &SessionObs) -> RqClass {
        RepresentationModel::predict(self, obs)
    }

    fn class_label(class: &RqClass) -> &'static str {
        match class {
            RqClass::Ld => "ld",
            RqClass::Sd => "sd",
            RqClass::Hd => "hd",
        }
    }
}

impl Detector for SwitchModel {
    type Class = bool;

    fn name(&self) -> &'static str {
        "switch"
    }

    fn project(&self, obs: &SessionObs) -> Vec<f64> {
        vec![self.score(obs)]
    }

    fn predict(&self, obs: &SessionObs) -> bool {
        self.detect(obs)
    }

    fn class_label(class: &bool) -> &'static str {
        if *class {
            "switching"
        } else {
            "stable"
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monitor::{QoeMonitor, TrainingConfig};
    use crate::spec::DatasetSpec;
    use vqoe_features::labels::has_switches;
    use vqoe_features::{rq_label, stall_label};

    fn monitor() -> QoeMonitor {
        QoeMonitor::train(&TrainingConfig {
            cleartext_sessions: 250,
            adaptive_sessions: 150,
            seed: 91,
            ..TrainingConfig::default()
        })
    }

    /// Generic over the trait on purpose: this is the code shape the
    /// unification exists for.
    fn accuracy_of<D: Detector>(d: &D, labelled: &[(SessionObs, D::Class)]) -> f64 {
        d.evaluate(labelled).accuracy()
    }

    #[test]
    fn all_three_detectors_work_through_the_trait() {
        let m = monitor();
        let eval = crate::generate::generate_traces(&DatasetSpec::adaptive_default(60, 92));

        let stall_set: Vec<(SessionObs, StallClass)> = eval
            .iter()
            .map(|t| (SessionObs::from_trace(t), stall_label(&t.ground_truth)))
            .collect();
        let rep_set: Vec<(SessionObs, RqClass)> = eval
            .iter()
            .map(|t| (SessionObs::from_trace(t), rq_label(&t.ground_truth)))
            .collect();
        let switch_set: Vec<(SessionObs, bool)> = eval
            .iter()
            .map(|t| (SessionObs::from_trace(t), has_switches(&t.ground_truth)))
            .collect();

        assert_eq!(m.stall_model.name(), "stall");
        assert_eq!(m.representation_model.name(), "representation");
        assert_eq!(m.switch_model.name(), "switch");
        // Better than falling over; real accuracy claims live in the
        // pipeline tests and the reproduction tables.
        assert!(accuracy_of(&m.stall_model, &stall_set) > 0.0);
        assert!(accuracy_of(&m.representation_model, &rep_set) > 0.0);
        assert!(accuracy_of(&m.switch_model, &switch_set) > 0.0);
    }

    #[test]
    fn projections_have_the_models_dimensions() {
        let m = monitor();
        let eval = crate::generate::generate_traces(&DatasetSpec::adaptive_default(5, 93));
        let obs = SessionObs::from_trace(&eval[0]);
        assert_eq!(
            Detector::project(&m.stall_model, &obs).len(),
            m.stall_model.selected_indices.len()
        );
        assert_eq!(
            Detector::project(&m.representation_model, &obs).len(),
            m.representation_model.selected_indices.len()
        );
        let score = m.switch_model.score(&obs);
        assert_eq!(Detector::project(&m.switch_model, &obs), vec![score]);
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn planned_projection_is_the_full_vector_projected() {
        let m = monitor();
        let eval = crate::generate::generate_traces(&DatasetSpec {
            n_sessions: 30,
            ..DatasetSpec::encrypted_default(94)
        });
        for t in &eval {
            let obs = SessionObs::from_trace(t);
            let stall_full = vqoe_features::stall_features(&obs);
            let rep_full = vqoe_features::representation_features(&obs);
            assert_eq!(
                bits(&Detector::project(&m.stall_model, &obs)),
                bits(&m.stall_model.project(&stall_full))
            );
            assert_eq!(
                bits(&Detector::project(&m.representation_model, &obs)),
                bits(&m.representation_model.project(&rep_full))
            );
            assert_eq!(
                m.stall_model.predict(&obs),
                m.stall_model.predict_from_features(&stall_full)
            );
            assert_eq!(
                m.representation_model.predict(&obs),
                m.representation_model.predict_from_features(&rep_full)
            );
        }
    }

    #[test]
    fn plans_are_not_serialized_and_survive_a_json_round_trip() {
        use serde::Serialize;
        let m = monitor();
        let keys = |v: serde::Value| match v {
            serde::Value::Map(fields) => fields.into_iter().map(|(k, _)| k).collect::<Vec<_>>(),
            other => panic!("model serializes to a map, got {other:?}"),
        };
        let fields = ["forest", "selected_indices", "selected_names"];
        assert_eq!(keys(m.stall_model.to_value()), fields);
        assert_eq!(keys(m.representation_model.to_value()), fields);

        let stall: StallModel =
            serde_json::from_str(&serde_json::to_string(&m.stall_model).unwrap()).unwrap();
        let rep: RepresentationModel =
            serde_json::from_str(&serde_json::to_string(&m.representation_model).unwrap()).unwrap();
        assert_eq!(stall.plan(), m.stall_model.plan());
        assert_eq!(rep.plan(), m.representation_model.plan());
        let eval = crate::generate::generate_traces(&DatasetSpec {
            n_sessions: 30,
            ..DatasetSpec::encrypted_default(95)
        });
        for t in &eval {
            let obs = SessionObs::from_trace(t);
            assert_eq!(stall.predict(&obs), m.stall_model.predict(&obs));
            assert_eq!(rep.predict(&obs), m.representation_model.predict(&obs));
            let mut state = vqoe_features::StreamingSessionState::new();
            for c in &obs.chunks {
                state.fold(c);
            }
            assert_eq!(
                stall.predict_sketched(&state),
                m.stall_model
                    .predict_from_features(&state.stall_features_approx())
            );
            assert_eq!(
                rep.predict_sketched(&state),
                m.representation_model
                    .predict_from_features(&state.representation_features_approx())
            );
        }
    }
}
